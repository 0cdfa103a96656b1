"""Two-stage toy models: determinism, latent shapes, conditioning behavior."""

import numpy as np
import pytest

from disruptkit import autodiff as ad
from disruptkit import zoo
from disruptkit.autodiff import Tensor
from disruptkit.dataset import generate_dataset
from disruptkit.errors import ConfigError, ShapeError

from support import STAGES, drawn_stages, rel_err


def source_image(seed=0, shape=(8, 8, 1)):
    return generate_dataset(seed=seed, count=1, shape=shape)[0]


def same_parameters(a, b):
    return a.names() == b.names() and all(
        np.array_equal(a[n].data, b[n].data) for n in a.names())


def attr_for(model, seed=100):
    return zoo.sample_attribute(model, np.random.default_rng(seed))


@pytest.fixture(params=zoo.ARCHETYPES)
def model(request):
    return zoo.build_model(request.param, seed=42)


class TestBuildDeterminism:
    def test_same_build_identical_parameters(self, model):
        twin = zoo.build_model(model.archetype, seed=42)
        assert same_parameters(model.encoder_params, twin.encoder_params)
        assert same_parameters(model.generator_params, twin.generator_params)

    def test_different_seed_different_parameters(self):
        a = zoo.build_model("vec_conditional", seed=1)
        b = zoo.build_model("vec_conditional", seed=2)
        assert not same_parameters(a.encoder_params, b.encoder_params)

    def test_unknown_archetype_rejected(self):
        with pytest.raises(ConfigError):
            zoo.build_model("gan_inverter", seed=0)

    def test_encoder_generator_streams_independent(self):
        m = zoo.build_model("vec_conditional", seed=5)
        assert not np.array_equal(
            m.encoder_params["enc1.w"].data.reshape(-1)[:10],
            m.generator_params["gen1.w"].data.reshape(-1)[:10],
        )

    def test_split_weights_are_column_views_of_the_drawn_matrix(self, model):
        w = model.generator_params["refine.w" if model.archetype == "refiner" else "gen1.w"]
        w_z, w_c = model.split_weights
        assert w_z.shape[1] == int(np.prod(model.latent_shape))
        assert np.array_equal(np.concatenate([w_z.data, w_c.data], axis=1), w.data)
        assert np.shares_memory(w_z.data, w.data) and np.shares_memory(w_c.data, w.data)

    def test_biases_are_zero(self, model):
        for ps in (model.encoder_params, model.generator_params):
            for name in ps.names():
                if name.endswith(".b"):
                    assert np.array_equal(ps[name].data, np.zeros(ps[name].shape))

    def test_weight_bounds_follow_fan_in(self):
        m = zoo.build_model("vec_conditional", seed=3)
        w = m.encoder_params["enc1.w"]
        bound = 1.0 / np.sqrt(w.shape[1])
        assert np.max(np.abs(w.data)) <= bound


class TestLatentSpecs:
    def test_reenactor_latent_is_image_shaped(self):
        m = zoo.build_model("reenactor", seed=0)
        assert m.latent_shape == m.dims.image_shape
        assert m.condition_shape == (m.dims.attribute_dim,)

    def test_vector_latents(self):
        for archetype in ("vec_conditional", "refiner", "swapper"):
            m = zoo.build_model(archetype, seed=0)
            assert m.latent_shape == (m.dims.latent_dim,)

    def test_feature_map_latent_variant(self):
        dims = zoo.ModelDims(latent_dim=12, latent_shape=(3, 2, 2))
        m = zoo.build_model("vec_conditional", seed=0, dims=dims)
        assert m.latent_shape == (3, 2, 2)
        z = m.encode(source_image())
        assert z.shape == (3, 2, 2)
        y = m.generate(z, attr_for(m))
        assert y.shape == m.dims.image_shape

    def test_feature_map_restricted_to_vec_conditional(self):
        dims = zoo.ModelDims(latent_dim=12, latent_shape=(3, 2, 2))
        with pytest.raises(ConfigError):
            zoo.build_model("refiner", seed=0, dims=dims)

    def test_latent_spec_rank_validation(self):
        # a latent_shape must be rank 3 and hold exactly latent_dim values
        for bad in [(12,), (3, 4), (3, 2, 2, 1), (3, 0, 4), (3, 2, 3)]:
            with pytest.raises(ConfigError):
                zoo.ModelDims(latent_dim=12, latent_shape=bad)


class TestEncode:
    def test_latent_shape_contract(self, model):
        z = model.encode(source_image())
        assert z.shape == model.latent_shape

    def test_zero_image_zero_latent_for_tanh_encoders(self):
        for archetype in ("vec_conditional", "refiner", "swapper"):
            m = zoo.build_model(archetype, seed=1)
            z = m.encode(Tensor(np.zeros(m.dims.image_shape)))
            assert np.array_equal(z.data, np.zeros(z.shape))

    def test_encode_ignores_attribute_context(self, model):
        # E has no attribute argument at all; repeated calls are bitwise equal
        x = source_image()
        z1 = model.encode(x)
        z2 = model.encode(x)
        assert np.array_equal(z1.data, z2.data)

    def test_shape_mismatch_rejected(self, model):
        with pytest.raises(ShapeError):
            model.encode(Tensor(np.zeros((4, 4, 1))))


class TestGenerate:
    def test_full_forward_equals_composition_bitwise(self, model):
        x = source_image(3)
        c = attr_for(model)
        y_composed = model.generate(model.encode(x), c)
        y_full = model.full_forward(x, c)
        assert np.array_equal(y_composed.data, y_full.data)

    def test_output_within_unit_interval(self, model):
        y = model.full_forward(source_image(4), attr_for(model))
        assert y.shape == model.dims.image_shape
        assert np.all(y.data >= 0.0) and np.all(y.data <= 1.0)

    def test_refiner_zero_steps_equals_hand_built_decoder(self):
        dims = zoo.ModelDims(refine_steps=0)
        m = zoo.build_model("refiner", seed=6, dims=dims)
        z = m.encode(source_image(5))
        c = attr_for(m)
        y = m.generate(z, c)
        # independent oracle: plain numpy decode, no refinement
        p = m.generator_params
        h = np.tanh(p["gen1.w"].data @ z.data + p["gen1.b"].data)
        logits = p["gen2.w"].data @ h + p["gen2.b"].data
        want = (1.0 / (1.0 + np.exp(-logits))).reshape(m.dims.image_shape)
        assert np.max(np.abs(y.data - want)) < 1e-12

    def test_refiner_steps_change_output(self):
        z_src = source_image(5)
        c_rng = np.random.default_rng(8)
        m4 = zoo.build_model("refiner", seed=6)
        m0 = zoo.build_model("refiner", seed=6, dims=zoo.ModelDims(refine_steps=0))
        c = Tensor(c_rng.uniform(-1, 1, size=m4.condition_shape))
        y4 = m4.full_forward(z_src, c)
        y0 = m0.full_forward(z_src, c)
        assert np.max(np.abs(y4.data - y0.data)) > 1e-6

    def test_swapper_conditioning_is_an_image(self):
        m = zoo.build_model("swapper", seed=2)
        assert m.condition_shape == m.dims.image_shape
        target_face = attr_for(m)
        assert target_face.shape == m.dims.image_shape
        y = m.generate(m.encode(source_image(1)), target_face)
        assert y.shape == m.dims.image_shape
        with pytest.raises(ShapeError):
            m.generate(m.encode(source_image(1)), Tensor(np.zeros(4)))

    def test_attribute_shape_validation(self):
        m = zoo.build_model("vec_conditional", seed=2)
        with pytest.raises(ShapeError):
            m.generate(m.encode(source_image(1)), Tensor(np.zeros(7)))

    def test_latent_shape_validation(self, model):
        bad = Tensor(np.zeros([s + 1 for s in model.latent_shape]))
        with pytest.raises(ShapeError):
            model.generate(bad, attr_for(model))


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def numpy_encode(m, x):
    """E(x) written out in plain numpy, from the layer names alone."""
    p = {n: m.encoder_params[n].data for n in m.encoder_params.names()}
    h = np.tanh(p["enc1.w"] @ x.reshape(-1) + p["enc1.b"])
    pre = p["enc2.w"] @ h + p["enc2.b"]
    if m.archetype == "reenactor":
        return _sigmoid(pre).reshape(m.dims.image_shape)
    z = np.tanh(pre)
    return z.reshape(m.dims.latent_shape) if m.dims.latent_shape else z


def numpy_generate(m, z, c):
    """G(z, c) written out in plain numpy, from the layer names alone."""
    p = {n: m.generator_params[n].data for n in m.generator_params.names()}
    if m.archetype == "refiner":
        u = z
        for _ in range(m.dims.refine_steps):
            u = u + np.tanh(p["refine.w"] @ np.concatenate([u, c]) + p["refine.b"])
    elif m.archetype == "swapper":
        u = np.concatenate([z, np.tanh(p["target.w"] @ c.reshape(-1) + p["target.b"])])
    else:
        u = np.concatenate([z.reshape(-1), c])
    h = np.tanh(p["gen1.w"] @ u + p["gen1.b"])
    return _sigmoid(p["gen2.w"] @ h + p["gen2.b"]).reshape(m.dims.image_shape)


class TestNumpyOracle:
    @pytest.mark.parametrize("archetype, dims", [
        ("vec_conditional", {}),
        ("vec_conditional", {"latent_dim": 12, "latent_shape": (3, 2, 2)}),
        ("refiner", {}),
        ("refiner", {"refine_steps": 2}),
        ("swapper", {}),
        ("reenactor", {}),
    ])
    def test_encode_and_generate_match_numpy(self, archetype, dims):
        m = zoo.build_model(archetype, seed=21, dims=zoo.ModelDims(**dims))
        x = source_image(6)
        c = attr_for(m, seed=22)
        z = m.encode(x)
        want = numpy_encode(m, x.data)
        assert z.shape == want.shape
        assert np.max(np.abs(z.data - want)) < 1e-12
        y = m.generate(z, c)
        assert np.max(np.abs(y.data - numpy_generate(m, z.data, c.data))) < 1e-12


class TestBatchAxes:
    def test_stack_rows_match_single_calls(self, model):
        images = generate_dataset(seed=12, count=3, shape=model.dims.image_shape)
        rng = np.random.default_rng(13)
        attrs = [[zoo.sample_attribute(model, rng) for _ in range(2)] for _ in range(3)]
        X = Tensor(np.stack([x.data for x in images.images]))
        C = Tensor(np.stack([[c.data for c in row] for row in attrs]))
        Z = model.encode(X)
        assert Z.shape == (3,) + model.latent_shape
        Zk = Tensor(np.repeat(Z.data[:, None], 2, axis=1))
        Y = model.generate(Zk, C)
        assert Y.shape == (3, 2) + model.dims.image_shape
        for i in range(3):
            z = model.encode(images[i])
            assert rel_err(Z.data[i], z.data) < 1e-12
            for k in range(2):
                y = model.generate(z, attrs[i][k])
                assert rel_err(Y.data[i, k], y.data) < 1e-12

    @pytest.mark.parametrize("archetype, dims", [(a, None) for a in zoo.ARCHETYPES]
                             + [("refiner", zoo.ModelDims(refine_steps=0))],
                             ids=[*zoo.ARCHETYPES, "refiner_no_refine"])
    def test_unfanned_latent_broadcasts_against_conditioning(self, archetype, dims):
        # z [N, 1, ...] with c [K, ...] gives [N, K, ...], each entry as its own call; with
        # no refine step only gen1's bias carries c's leading axes to the output
        model = zoo.build_model(archetype, seed=42, dims=dims)
        images = generate_dataset(seed=14, count=3, shape=model.dims.image_shape)
        attrs = zoo.sample_attribute_set(model, 4, 0, [15]).known
        Z = model.encode(images.images)
        Y = model.generate(Tensor(Z.data[:, None]), Tensor(np.stack([c.data for c in attrs])))
        assert Y.shape == (3, 4) + model.dims.image_shape
        for i in range(3):
            for k, c in enumerate(attrs):
                assert rel_err(Y.data[i, k], model.generate(Z[i], c).data) < 1e-12

    def test_mismatched_leading_axes_rejected(self, model):
        z = model.encode(Tensor(np.zeros((2,) + model.dims.image_shape)))
        c = attr_for(model)
        with pytest.raises(ShapeError):
            model.generate(z, Tensor(np.stack([c.data] * 3)))


class TestConditionalBehavior:
    def test_attribute_sensitivity(self, model):
        z = model.encode(source_image(7))
        rng = np.random.default_rng(17)
        c1 = zoo.sample_attribute(model, rng)
        c2 = zoo.sample_attribute(model, rng)
        y1 = model.generate(z, c1)
        y2 = model.generate(z, c2)
        assert np.max(np.abs(y1.data - y2.data)) > 1e-6

    def test_latent_sensitivity(self, model):
        x = source_image(9)
        z = model.encode(x)
        c = attr_for(model)
        delta = np.zeros(z.shape)
        delta.reshape(-1)[0] = 0.05
        y1 = model.generate(z, c)
        y2 = model.generate(Tensor(z.data + delta), c)
        assert np.max(np.abs(y1.data - y2.data)) > 0.0


class TestCapacityAsymmetry:
    def test_generator_at_least_four_times_encoder(self, model):
        assert model.parameter_ratio >= 4.0


# every archetype, plus the two shapes with their own code paths
VARIANTS = [(arch, zoo.ModelDims()) for arch in zoo.ARCHETYPES] + [
    ("vec_conditional", zoo.ModelDims(latent_shape=(3, 2, 2))),
    ("refiner", zoo.ModelDims(refine_steps=0)),
]
VARIANT_IDS = list(zoo.ARCHETYPES) + ["vec_conditional_feature_map", "refiner_no_refine"]


@pytest.mark.parametrize("archetype, dims", VARIANTS, ids=VARIANT_IDS)
class TestLazyDraws:
    @pytest.mark.parametrize("first", STAGES)
    def test_lazy_draws_keep_their_bits(self, archetype, dims, first):
        m = zoo.build_model(archetype, seed=7, dims=dims)
        assert drawn_stages(m) == set()
        getattr(m, first)
        # the encoder and the generator are drawn apart; the split blocks read the generator
        assert drawn_stages(m) == ({first} if first == "encoder_params"
                                  else {first, "generator_params"})
        enc_plan, gen_plan = zoo.layer_plan(archetype, dims)[:2]
        assert same_parameters(m.encoder_params, zoo.init_parameters([7, 0], enc_plan))
        assert same_parameters(m.generator_params, zoo.init_parameters([7, 1], gen_plan))
        mixed = m.generator_params["refine.w" if archetype == "refiner" else "gen1.w"].data
        w_z, w_c = m.split_weights
        assert w_z.shape[1] == int(np.prod(m.latent_shape))
        assert np.array_equal(np.concatenate([w_z.data, w_c.data], axis=1), mixed)
        assert np.shares_memory(w_z.data, mixed) and np.shares_memory(w_c.data, mixed)

    def test_parameter_ratio_draws_nothing(self, archetype, dims):
        m = zoo.build_model(archetype, seed=7, dims=dims)
        ratio = m.parameter_ratio
        assert drawn_stages(m) == set()
        assert ratio == m.generator_params.count / m.encoder_params.count

    def test_encoding_draws_no_generator(self, archetype, dims):
        m = zoo.build_model(archetype, seed=7, dims=dims)
        m.encode(source_image(1, dims.image_shape))
        assert drawn_stages(m) == {"encoder_params"}


class TestGradientFlow:
    def test_full_forward_differentiable(self, model):
        x0 = source_image(11)
        c = attr_for(model)
        with ad.stop_recording():
            ref = model.full_forward(x0, c)

        def loss_fn(xv):
            return ad.mse_loss(model.full_forward(xv, c), ref)

        tape = ad.Tape()
        with ad.recording(tape):
            x = tape.watch(x0)
            shifted = ad.add(x, Tensor(np.full(x0.shape, 0.01)))
            loss = loss_fn(shifted)
        g = ad.backward(loss, x)
        g_fd = ad.finite_difference_gradient(
            lambda xv: loss_fn(Tensor(xv.data + 0.01)), x0
        )
        assert rel_err(g.data, g_fd.data) < 1e-5


class TestCounters:
    def test_counters_track_calls(self):
        m = zoo.build_model("vec_conditional", seed=0)
        m.counters.reset()
        x = source_image(0)
        z = m.encode(x)
        m.generate(z, attr_for(m))
        m.full_forward(x, attr_for(m))
        assert m.counters.encode_calls == 2
        assert m.counters.generate_calls == 2


class TestAttributeSets:
    def test_sample_counts_and_determinism(self, model):
        a = zoo.sample_attribute_set(model, 5, 5, [202, 0])
        b = zoo.sample_attribute_set(model, 5, 5, [202, 0])
        assert len(a.known) == 5 and len(a.unknown) == 5
        for ta, tb in zip(a.known + a.unknown, b.known + b.unknown):
            assert np.array_equal(ta.data, tb.data)

    def test_known_unknown_disjoint(self, model):
        s = zoo.sample_attribute_set(model, 3, 3, [7, 1])
        for k in s.known:
            for u in s.unknown:
                assert not np.array_equal(k.data, u.data)

    def test_duplicate_attributes_rejected(self):
        c = Tensor([0.1, 0.2, 0.3, 0.4])
        with pytest.raises(ConfigError):
            zoo.AttributeSet(known=(c,), unknown=(Tensor(c.data.copy()),))
