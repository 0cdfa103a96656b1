"""Image-distance and latent-distance disruption objectives."""

import dataclasses

import numpy as np
import pytest

from disruptkit import autodiff as ad
from disruptkit import zoo
from disruptkit.autodiff import Tensor
from disruptkit.dataset import generate_dataset
from disruptkit.errors import ConfigError
from disruptkit.objectives import (
    ImageAttackObjective,
    LatentAttackObjective,
    per_model_image_loss,
)


@pytest.fixture
def model():
    return zoo.build_model("vec_conditional", seed=10)


@pytest.fixture
def x():
    return generate_dataset(seed=1, count=1, shape=(8, 8, 1))[0]


def perturbed(x, scale=0.03, seed=2):
    rng = np.random.default_rng(seed)
    noisy = np.clip(x.data + rng.uniform(-scale, scale, size=x.shape), 0.0, 1.0)
    return Tensor(noisy)


def attrs_for(model, n=2, seed=50):
    rng = np.random.default_rng(seed)
    return [zoo.sample_attribute(model, rng) for _ in range(n)]


def latent_loss(model, x, xp):
    return LatentAttackObjective().bind(model, x)(xp)


def latent_mse(model, x, xp):
    """Independent oracle: mse(E(X_pert), E(X)) computed directly, off-tape."""
    with ad.recording(None):
        return ad.mse_loss(model.encode(xp), model.encode(x)).item()


class TestImageLoss:
    def test_zero_on_identical_input(self, model, x):
        loss = per_model_image_loss(model, x, x, attrs_for(model))
        assert loss.item() == 0.0

    def test_single_attribute_equals_plain_mse(self, model, x):
        (c,) = attrs_for(model, n=1)
        xp = perturbed(x)
        with ad.recording(None):
            want = ad.mse_loss(model.full_forward(xp, c), model.full_forward(x, c)).item()
        got = per_model_image_loss(model, x, xp, [c]).item()
        assert abs(got - want) < 1e-15

    def test_two_attributes_average_of_singles(self, model, x):
        c1, c2 = attrs_for(model, n=2)
        xp = perturbed(x)
        # independent oracle: each single-attribute loss separately, then mean
        l1 = per_model_image_loss(model, x, xp, [c1]).item()
        l2 = per_model_image_loss(model, x, xp, [c2]).item()
        got = per_model_image_loss(model, x, xp, [c1, c2]).item()
        assert abs(got - (l1 + l2) / 2.0) < 1e-12

    def test_uniform_average_over_longer_lists(self, model, x):
        cs = attrs_for(model, n=5)
        xp = perturbed(x)
        singles = [per_model_image_loss(model, x, xp, [c]).item() for c in cs]
        got = per_model_image_loss(model, x, xp, cs).item()
        assert abs(got - sum(singles) / 5.0) < 1e-12

    def test_empty_attribute_list_rejected(self, model, x):
        with pytest.raises(ConfigError):
            per_model_image_loss(model, x, perturbed(x), [])

    def test_nonnegative_and_positive_when_perturbed(self, model, x):
        xp = perturbed(x)
        loss = per_model_image_loss(model, x, xp, attrs_for(model)).item()
        assert loss > 0.0


class TestLatentLoss:
    def test_zero_on_identical_input(self, model, x):
        assert latent_loss(model, x, x).item() == 0.0

    def test_positive_when_perturbed(self, model, x):
        assert latent_loss(model, x, perturbed(x)).item() > 0.0

    def test_generator_never_invoked(self, model, x):
        model.counters.reset()
        latent_loss(model, x, perturbed(x))
        assert model.counters.generate_calls == 0
        assert model.counters.encode_calls > 0

    def test_value_ignores_attribute_context_bitwise(self, model, x):
        # the latent loss has no attribute input at all; repeated evaluation
        # in different attribute "contexts" is the same computation
        xp = perturbed(x)
        v1 = latent_loss(model, x, xp).item()
        attrs_for(model, n=4, seed=99)
        v2 = latent_loss(model, x, xp).item()
        assert v1 == v2

    def test_image_shaped_latent_supported(self, x):
        m = zoo.build_model("reenactor", seed=4)
        loss = latent_loss(m, x, perturbed(x))
        assert loss.item() > 0.0


class TestObjectiveTypes:
    def test_latent_objective_has_no_attribute_field(self):
        field_names = {f.name for f in dataclasses.fields(LatentAttackObjective)}
        assert field_names == set()

    def test_image_objective_requires_attributes(self, model):
        with pytest.raises(ConfigError):
            ImageAttackObjective(attributes_by_model={model.name: []})
        obj = ImageAttackObjective(attributes_by_model={})
        with pytest.raises(ConfigError):
            obj.attrs_for(model)

    def test_bound_latent_loss_matches_module_function(self, model, x):
        xp = perturbed(x)
        bound = LatentAttackObjective().bind(model, x)
        with ad.recording(None):
            got = bound(xp).item()
        assert got == latent_mse(model, x, xp)

    def test_bound_image_loss_matches_module_function(self, model, x):
        cs = attrs_for(model, n=3)
        xp = perturbed(x)
        bound = ImageAttackObjective(attributes_by_model={model.name: cs}).bind(model, x)
        with ad.recording(None):
            got = bound(xp).item()
            # independent oracle: the per-attribute output MSEs, summed in order, then averaged;
            # bind reduces over the attribute axis in one mean, so rounding may differ
            total = ad.mse_loss(model.full_forward(xp, cs[0]), model.full_forward(x, cs[0]))
            for c in cs[1:]:
                total = ad.add(total, ad.mse_loss(model.full_forward(xp, c),
                                                  model.full_forward(x, c)))
            want = ad.scale(total, 1.0 / len(cs)).item()
        assert abs(got - want) < 1e-15

    def test_bound_losses_are_differentiable(self, model, x):
        from support import rel_err

        cs = attrs_for(model, n=2)
        for objective in (LatentAttackObjective(),
                          ImageAttackObjective(attributes_by_model={model.name: cs})):
            loss_fn = objective.bind(model, x)
            x0 = perturbed(x)
            tape = ad.Tape()
            with ad.recording(tape):
                xt = tape.watch(x0)
                loss = loss_fn(xt)
            g = ad.backward(loss, xt)
            g_fd = ad.finite_difference_gradient(
                lambda xv: (lambda t: t.item() if hasattr(t, "item") else float(t))(loss_fn(xv)),
                x0,
            )
            assert rel_err(g.data, g_fd.data) < 1e-5
