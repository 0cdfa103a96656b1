"""Tensor arithmetic and reverse-mode gradient checks."""

import gc
import weakref

import numpy as np
import pytest

from disruptkit import autodiff as ad
from disruptkit import zoo
from disruptkit.dataset import IMAGE_RANK, generate_dataset, stack_axes
from disruptkit.errors import LineageError, ShapeError
from disruptkit.objectives import ImageAttackObjective, LatentAttackObjective, attribute_outputs

from support import reachable_arrays, recorded, recorded_outputs, rel_err


def watched(tape, *arrays):
    return [tape.watch(ad.Tensor(a)) for a in arrays]


class TestTensor:
    def test_row_major_flat_layout(self):
        t = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.data.reshape(-1).tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ad.Tensor([1.0, float("nan")])
        with pytest.raises(ValueError):
            ad.Tensor([float("inf")])

    def test_immutable(self):
        t = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        for view in (t, t[1]):
            with pytest.raises(ValueError):
                view.data[0] = 5.0

    def test_leading_axis_rows(self):
        t = ad.Tensor(np.arange(24.0).reshape(4, 3, 2))
        assert len(t) == 4
        for i, row in enumerate(t):
            assert np.array_equal(row.data, t.data[i])
            assert np.array_equal(t[i].data, t.data[i])
            assert np.shares_memory(t[i].data, t.data)  # a view, not a copy
        assert len(list(t)) == 4

    def test_column_slice_is_a_read_only_view(self):
        t = ad.Tensor(np.arange(12.0).reshape(3, 4))
        cols = t[:, 1:3]
        assert np.array_equal(cols.data, t.data[:, 1:3])
        assert np.shares_memory(cols.data, t.data)
        with pytest.raises(ValueError):
            cols.data[0, 0] = 5.0

    def test_source_array_is_copied(self):
        src = np.array([1.0, 2.0])
        t = ad.Tensor(src)
        src[0] = 9.0
        assert t.data[0] == 1.0


class TestForwardAffine:
    def test_identity_like(self):
        x = ad.Tensor([1.0, 0.0])
        w = ad.Tensor([[2.0, 0.0], [0.0, 3.0]])
        b = ad.Tensor([0.0, 0.0])
        y = ad.forward_affine(x, w, b)
        assert y.data.tolist() == [2.0, 0.0]

    def test_zero_input_returns_bias(self):
        rng = np.random.default_rng(0)
        w = ad.Tensor(rng.normal(size=(3, 4)))
        b = ad.Tensor([0.5, -1.0, 2.0])
        y = ad.forward_affine(ad.Tensor(np.zeros(4)), w, b)
        assert np.array_equal(y.data, b.data)

    def test_matches_hand_computed_matmul(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=4)
        w = rng.normal(size=(3, 4))
        b = rng.normal(size=3)
        # independent oracle: explicit scalar loops
        want = np.zeros(3)
        for i in range(3):
            acc = b[i]
            for j in range(4):
                acc += w[i, j] * x[j]
            want[i] = acc
        y = ad.forward_affine(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b))
        assert np.max(np.abs(y.data - want)) < 1e-12

    def test_batched_leading_axis(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 4))
        w = rng.normal(size=(3, 4))
        b = rng.normal(size=3)
        y = ad.forward_affine(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b))
        assert y.shape == (5, 3)
        assert np.max(np.abs(y.data - (x @ w.T + b))) < 1e-12

    @pytest.mark.parametrize("act", [None, "tanh", "sigmoid"])
    def test_fused_activation_is_one_op_with_the_layer_bits(self, act):
        rng = np.random.default_rng(5)
        x, w, b = (ad.Tensor(rng.normal(size=s)) for s in ((5, 4), (3, 4), (3,)))
        tape = ad.Tape()
        with ad.recording(tape):
            y = ad.forward_affine(tape.watch(x), w, b, act)
        plain = ad.forward_affine(x, w, b)
        want = plain if act is None else ad.activation(plain, act)
        assert np.array_equal(y.data, want.data)
        assert [rec.op for rec in recorded(tape)] == ["affine" if act is None else f"affine_{act}"]

    @pytest.mark.parametrize("act", [None, "tanh", "sigmoid"])
    def test_fused_layer_gradients_with_broadcast_bias(self, act):
        # a [K, out] bias against an [N, 1, in] input gives [N, K, out]; the
        # input's gradient sums the K axis back to its shape
        rng = np.random.default_rng(9)
        x0, w, b = (ad.Tensor(rng.normal(size=s)) for s in ((2, 1, 4), (3, 4), (5, 3)))
        target = ad.Tensor(rng.uniform(size=(2, 5, 3)))

        def f(xv):
            return ad.mse_loss(ad.forward_affine(xv, w, b, act), target)

        tape = ad.Tape()
        with ad.recording(tape):
            x = tape.watch(x0)
            loss = f(x)
        assert [rec.op for rec in recorded(tape)] == [
            "affine" if act is None else f"affine_{act}", "mse"]
        assert recorded(tape)[0].needs == (True, False, False)
        got = ad.backward(loss, x)
        assert got.shape == x0.shape
        assert rel_err(got.data, ad.finite_difference_gradient(f, x0).data) < 1e-6

    def test_bias_that_does_not_broadcast_is_rejected(self):
        x = ad.Tensor(np.zeros((2, 4)))
        w = ad.Tensor(np.zeros((3, 4)))
        with pytest.raises(ShapeError):
            ad.forward_affine(x, w, ad.Tensor(np.zeros((5, 3))))
        with pytest.raises(ValueError):
            ad.forward_affine(x, w, ad.Tensor(np.zeros(3)), "softplus")

    def test_shape_mismatch_names_both_shapes(self):
        x = ad.Tensor(np.zeros(5))
        w = ad.Tensor(np.zeros((3, 4)))
        b = ad.Tensor(np.zeros(3))
        with pytest.raises(ShapeError) as ei:
            ad.forward_affine(x, w, b)
        assert "(5,)" in str(ei.value) and "(3, 4)" in str(ei.value)


class TestActivations:
    def test_trivial_values(self):
        assert ad.activation(ad.Tensor([0.0]), "tanh").data.tolist() == [0.0]
        assert ad.activation(ad.Tensor([0.0]), "sigmoid").data.tolist() == [0.5]

    def test_sigmoid_stable_for_large_inputs(self):
        y = ad.activation(ad.Tensor([-1000.0, 1000.0]), "sigmoid")
        assert np.all(np.isfinite(y.data))
        assert y.data[0] == 0.0 and y.data[1] == 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ad.activation(ad.Tensor([0.0]), "softplus")


class TestMseLoss:
    def test_identical_inputs_zero(self):
        a = ad.Tensor([1.0, 2.0, 3.0])
        assert ad.mse_loss(a, ad.Tensor([1.0, 2.0, 3.0])).item() == 0.0

    def test_unit_difference(self):
        loss = ad.mse_loss(ad.Tensor([0.0, 0.0]), ad.Tensor([1.0, 1.0]))
        assert loss.item() == 1.0

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(4, 5))
        # independent oracle: accumulate in a plain python loop
        acc = 0.0
        for i in range(4):
            for j in range(5):
                acc += (a[i, j] - b[i, j]) ** 2
        want = acc / 20.0
        got = ad.mse_loss(ad.Tensor(a), ad.Tensor(b)).item()
        assert abs(got - want) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.mse_loss(ad.Tensor([1.0]), ad.Tensor([1.0, 2.0]))


def toy_network(x, w1, b1, w2, b2, target):
    h = ad.activation(ad.forward_affine(x, w1, b1), "tanh")
    y = ad.activation(ad.forward_affine(h, w2, b2), "sigmoid")
    return ad.mse_loss(y, target)


class TestBackward:
    def test_quadratic_scalar(self):
        tape = ad.Tape()
        (x,) = watched(tape, [2.0])
        with ad.recording(tape):
            loss = ad.mse_loss(x, ad.Tensor([0.0]))
        g = ad.backward(loss, x)
        assert g.data.tolist() == [4.0]

    @pytest.mark.parametrize("seed", range(5))
    def test_toy_network_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        w1 = ad.Tensor(rng.normal(size=(6, 4)) * 0.5)
        b1 = ad.Tensor(rng.normal(size=6) * 0.1)
        w2 = ad.Tensor(rng.normal(size=(3, 6)) * 0.5)
        b2 = ad.Tensor(rng.normal(size=3) * 0.1)
        target = ad.Tensor(rng.uniform(size=3))
        x0 = ad.Tensor(rng.normal(size=4))

        tape = ad.Tape()
        with ad.recording(tape):
            x = tape.watch(x0)
            loss = toy_network(x, w1, b1, w2, b2, target)
        g = ad.backward(loss, x)

        g_fd = ad.finite_difference_gradient(
            lambda xv: toy_network(xv, w1, b1, w2, b2, target), x0
        )
        assert rel_err(g.data, g_fd.data) < 1e-5

    def test_gradient_through_concat_reshape_add_scale(self):
        rng = np.random.default_rng(21)
        a0 = ad.Tensor(rng.normal(size=(2, 3)))
        b0 = ad.Tensor(rng.normal(size=(2, 3)))

        def f(av):
            flat_a = ad.reshape(av, [6])
            flat_b = ad.reshape(b0, [6])
            cat = ad.concatenate([flat_a, flat_b])
            bumped = ad.add(cat, ad.scale(cat, 0.5))
            return ad.mean(ad.squared_difference(bumped, ad.Tensor(np.ones(12))))

        tape = ad.Tape()
        with ad.recording(tape):
            a = tape.watch(a0)
            loss = f(a)
        g = ad.backward(loss, a)
        g_fd = ad.finite_difference_gradient(f, a0)
        assert rel_err(g.data, g_fd.data) < 1e-5

    def test_linearity(self):
        rng = np.random.default_rng(5)
        x0 = ad.Tensor(rng.normal(size=4))
        t1 = ad.Tensor(rng.normal(size=4))
        t2 = ad.Tensor(rng.normal(size=4))
        alpha, beta = 0.37, -1.62

        tape = ad.Tape()
        with ad.recording(tape):
            x = tape.watch(x0)
            l1 = ad.mse_loss(x, t1)
            l2 = ad.mse_loss(ad.activation(x, "tanh"), t2)
            combo = ad.add(ad.scale(l1, alpha), ad.scale(l2, beta))
        g1 = ad.backward(l1, x)
        g2 = ad.backward(l2, x)
        gc = ad.backward(combo, x)
        assert np.max(np.abs(gc.data - (alpha * g1.data + beta * g2.data))) < 1e-10

    def test_tape_reuse_identical_gradients(self):
        rng = np.random.default_rng(9)
        x0 = ad.Tensor(rng.normal(size=5))
        tape = ad.Tape()
        with ad.recording(tape):
            x = tape.watch(x0)
            loss = ad.mse_loss(ad.activation(x, "tanh"), ad.Tensor(np.zeros(5)))
        g1 = ad.backward(loss, x)
        g2 = ad.backward(loss, x)
        assert np.array_equal(g1.data, g2.data)

    def test_determinism_across_runs(self):
        def run(seed):
            rng = np.random.default_rng(seed)
            x0 = ad.Tensor(rng.normal(size=4))
            w = ad.Tensor(rng.normal(size=(3, 4)))
            b = ad.Tensor(rng.normal(size=3))
            tape = ad.Tape()
            with ad.recording(tape):
                x = tape.watch(x0)
                loss = ad.mse_loss(ad.activation(ad.forward_affine(x, w, b), "sigmoid"),
                                   ad.Tensor(np.zeros(3)))
            return loss.item(), ad.backward(loss, x).data

        l1, g1 = run(123)
        l2, g2 = run(123)
        assert l1 == l2
        assert np.array_equal(g1, g2)

    def test_lineage_error_for_foreign_tensor(self):
        tape = ad.Tape()
        (x,) = watched(tape, [1.0])
        with ad.recording(tape):
            loss = ad.mse_loss(x, ad.Tensor([0.0]))
        stranger = ad.Tensor([1.0])
        with pytest.raises(LineageError):
            ad.backward(loss, stranger)

    def test_untaped_loss_raises(self):
        loss = ad.mse_loss(ad.Tensor([1.0]), ad.Tensor([0.0]))
        with pytest.raises(LineageError):
            ad.backward(loss, ad.Tensor([1.0]))
        # a row of a watched tensor is recorded on no tape, so neither is its loss
        tape = ad.Tape()
        (x,) = watched(tape, [[1.0, 2.0], [3.0, 4.0]])
        with ad.recording(tape):
            row_loss = ad.mse_loss(x[0], ad.Tensor([0.0, 0.0]))
        with pytest.raises(LineageError):
            ad.backward(row_loss, x)

    def test_summed_backward_is_gradient_of_the_sum(self):
        rng = np.random.default_rng(39)
        x0 = ad.Tensor(rng.normal(size=(3, 4)))
        tape = ad.Tape()
        with ad.recording(tape):
            x = tape.watch(x0)
            y = ad.activation(x, "tanh")
            total = ad.scale(ad.mean(y), y.size)
        assert np.array_equal(ad.backward(y, x).data, ad.backward(total, x).data)
        assert np.array_equal(ad.backward(total, x).data,
                              ad.backward(total, x).data)


class TestBatchPrimitives:
    def test_mean_over_trailing_axes(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(3, 2, 4))
        got = ad.mean(ad.Tensor(a), 2)
        assert got.shape == (3,)
        for i in range(3):
            assert abs(got.data[i] - a[i].mean()) < 1e-15
        assert ad.mean(ad.Tensor(a)).shape == ()
        with pytest.raises(ShapeError):
            ad.mean(ad.Tensor(a), 4)

    def test_add_broadcasts_values_and_shape_check(self):
        x = ad.Tensor([[1.0, 2.0]])
        y = ad.add(x, ad.Tensor(np.zeros((3, 4, 2))))
        assert y.shape == (3, 4, 2)
        assert np.array_equal(y.data, np.broadcast_to(x.data, (3, 4, 2)))
        with pytest.raises(ShapeError):
            ad.add(x, ad.Tensor(np.zeros((3, 3))))

    def test_add_vjp_sums_added_and_stretched_axes(self):
        rng = np.random.default_rng(33)
        a0 = ad.Tensor(rng.normal(size=(2, 1, 3)))
        b0 = ad.Tensor(rng.normal(size=(4, 1, 5, 1)))
        target = ad.Tensor(rng.normal(size=(4, 2, 5, 3)))

        def f(av, bv):
            return ad.mse_loss(ad.activation(ad.add(av, bv), "tanh"), target)

        # a tape watches one tensor, so each operand is differentiated on its own tape
        for fv, v0 in ((lambda v: f(v, b0), a0), (lambda v: f(a0, v), b0)):
            _, v, loss = record(fv, v0)
            g = ad.backward(loss, v)
            assert g.shape == v0.shape
            assert rel_err(g.data, ad.finite_difference_gradient(fv, v0).data) < 1e-5

    def test_sum_of_row_losses_gives_each_row_its_own_gradient(self):
        rng = np.random.default_rng(35)
        w = ad.Tensor(rng.normal(size=(3, 4)))
        b = ad.Tensor(rng.normal(size=3))
        x0 = rng.normal(size=(5, 4))
        target = ad.Tensor(rng.normal(size=(5, 3)))

        def row_losses(xv, t):
            return ad.mse_loss(ad.activation(ad.forward_affine(xv, w, b), "tanh"), t, 1)

        tape = ad.Tape()
        with ad.recording(tape):
            x = tape.watch(ad.Tensor(x0))
            losses = row_losses(x, target)
        g = ad.backward(losses, x)
        for i in range(5):
            tape_i = ad.Tape()
            with ad.recording(tape_i):
                xi = tape_i.watch(ad.Tensor(x0[i]))
                loss_i = row_losses(xi, ad.Tensor(target.data[i]))
            # a batched matmul may round differently from a matrix-vector product
            assert abs(loss_i.item() - losses.data[i]) <= 1e-12 * loss_i.item()
            assert rel_err(g.data[i], ad.backward(loss_i, xi).data) < 1e-12


class TestTracking:
    def test_untracked_weights_are_not_differentiable(self):
        tape = ad.Tape()
        w = ad.Tensor([[1.0, 2.0]])
        (x,) = watched(tape, [0.5, -0.5])
        with ad.recording(tape):
            loss = ad.mean(ad.forward_affine(x, w, ad.Tensor([0.0])))
        assert recorded(tape)[0].needs == (True, False, False)
        with pytest.raises(LineageError):
            ad.backward(loss, w)

    @pytest.mark.parametrize("tracked", [1, 2], ids=["weights", "bias"])
    @pytest.mark.parametrize("act", [None, "tanh"])
    def test_tracked_layer_parameters_raise(self, tracked, act):
        # layer parameters are constants: tracking one is an error, not a zero gradient
        rng = np.random.default_rng(37)
        x0, w, b = (ad.Tensor(rng.normal(size=s)) for s in ((3, 4), (2, 4), (2,)))
        tape = ad.Tape()
        with ad.recording(tape):
            inputs = [x0, w, b]
            param = inputs[tracked] = tape.watch(inputs[tracked])
            loss = ad.mse_loss(ad.forward_affine(*inputs, act), ad.Tensor(np.zeros((3, 2))))
        with pytest.raises(LineageError, match="affine" if act is None else f"affine_{act}"):
            ad.backward(loss, param)

    def test_ops_on_untracked_inputs_are_not_recorded(self):
        tape = ad.Tape()
        (x,) = watched(tape, [1.0, 2.0])
        with ad.recording(tape):
            const = ad.activation(ad.Tensor([0.3, 0.4]), "tanh")
            loss = ad.mse_loss(x, const)
        assert [rec.op for rec in recorded(tape)] == ["mse"]
        assert const._tape is None
        assert recorded(tape)[0].needs == (True, False)
        assert np.array_equal(ad.backward(loss, x).data, x.data - const.data)


class TestWatch:
    def test_a_tape_watches_one_tensor(self):
        tape = ad.Tape()
        x = ad.Tensor([1.0, 2.0])
        assert tape.watch(x) is x
        assert tape.watch(x) is x  # watching it again changes nothing
        with ad.recording(tape):
            y = ad.activation(x, "tanh")
        for other in (ad.Tensor([3.0, 4.0]), y):  # a second tensor, a recorded output
            with pytest.raises(LineageError, match="one tensor"):
                tape.watch(other)
        assert list(tape._slots.values()) == [0, 1]  # the refused watches left no slot


class TestTapeLifetime:
    def test_tape_freed_by_reference_counting(self):
        # tensors refer to their tape weakly, so a tape is no reference cycle
        tape = ad.Tape()
        (x,) = watched(tape, [1.0, 2.0])
        with ad.recording(tape):
            loss = ad.mse_loss(ad.activation(x, "tanh"), ad.Tensor([0.0, 0.0]))
        assert loss._tape is tape
        alive = weakref.ref(tape)
        gc.disable()
        try:
            del tape
            assert alive() is None
        finally:
            gc.enable()
        with pytest.raises(LineageError):
            ad.backward(loss, x)


class TestTapeRecords:
    def test_topological_order(self):
        tape = ad.Tape()
        (x,) = watched(tape, [1.0, -2.0])
        with ad.recording(tape):
            y = ad.activation(x, "tanh")
            loss = ad.mse_loss(y, ad.Tensor([0.0, 0.0]))
        assert [rec.op for rec in recorded(tape)] == ["tanh", "mse"]
        defined = {tape._slots[x]}
        for rec in recorded(tape):
            # every tracked input is a leaf or an earlier record's output
            assert all(s is None or s in defined for s in rec.slots)
            defined.add(rec.out)
        assert loss._tape is tape


class TestSuspendedRecording:
    def test_ops_under_recording_none_are_not_recorded(self):
        tape = ad.Tape()
        (x,) = watched(tape, [1.0, 2.0])
        with ad.recording(tape):
            with ad.recording(None):
                ref = ad.activation(x, "tanh")
            loss = ad.mse_loss(x, ref)
        assert all(rec.op != "tanh" for rec in recorded(tape))
        g = ad.backward(loss, x)
        # ref is a frozen constant, so d/dx mean((x - ref)^2) = 2(x - ref)/n
        want = 2.0 * (x.data - ref.data) / 2.0
        assert np.max(np.abs(g.data - want)) < 1e-12


def record(loss_fn, x0):
    """(tape, watched x, loss) of ``loss_fn`` recorded at the values of ``x0``."""
    tape = ad.Tape()
    x = tape.watch(ad.Tensor(x0.data))
    with ad.recording(tape):
        loss = loss_fn(x)
    return tape, x, loss


def eager(loss_fn, x0):
    """The loss of ``loss_fn`` at ``x0`` and its gradient, from a recording made afresh there.

    ``backward`` compiles that recording and replays it at ``x0``, so this is
    the reference for a program replayed at a point other than its recorded
    one; the finite-difference checks (here and criterion 01) are the
    independent reference for the reverse walk itself.
    """
    _, x, loss = record(loss_fn, x0)
    return loss.data, ad.backward(loss, x).data


def objective_and_definition(model, method, X, seed):
    """The objective of ``method`` for ``model``, and its loss as the test defines it.

    The definition is mse(f(x), f(X)) recorded from plain ops, f being the
    encoder (leat) or the outputs for the known attributes (image attack),
    with f(X) computed off the tape: a reference independent of the program
    that ``bind`` compiles.
    """
    if method == "leat":
        objective, f, rank = LatentAttackObjective(), model.encode, len(model.latent_shape)
    else:
        attrs = zoo.sample_attribute_set(model, 3, 0, [seed]).known
        objective = ImageAttackObjective({model.name: attrs})
        outputs = attribute_outputs(model, attrs, stack_axes(X.shape))
        f, rank = (lambda v: outputs(model.encode(v))), 1 + IMAGE_RANK
    with ad.recording(None):
        ref = f(X)
    return objective, lambda v: ad.mse_loss(f(v), ref, rank)


class TestProgram:
    """compile turns a recorded loss into a program that run_program replays on new inputs."""

    @pytest.mark.parametrize("stack", [False, True], ids=["one_image", "stack"])
    @pytest.mark.parametrize("method", ["leat", "image_attack"])
    @pytest.mark.parametrize("archetype", zoo.ARCHETYPES)
    def test_bitwise_equal_to_record_and_backward(self, archetype, method, stack):
        model = zoo.build_model(archetype, seed=61)
        images = generate_dataset(seed=62, count=3, shape=(8, 8, 1)).images
        X = images if stack else images[0]
        objective, loss_fn = objective_and_definition(model, method, X, 63)
        rng = np.random.default_rng(64)
        points = [ad.Tensor(np.clip(X.data + rng.uniform(-0.05, 0.05, X.shape), 0.0, 1.0))
                  for _ in range(3)]
        _, x, loss = record(loss_fn, points[0])
        # a program compiled here, and the one bind compiled from its reference pass
        for program in (ad.compile(loss, x), objective.bind(model, X)):
            for point in points:
                want_loss, want_grad = eager(loss_fn, point)
                got_loss, got_grad = ad.run_program(program, point.data)
                assert got_loss.shape == want_loss.shape == X.shape[:-3]
                assert np.array_equal(got_loss, want_loss)
                assert got_grad.shape == X.shape
                assert np.array_equal(got_grad, want_grad)
                # called on a tensor, the program is one op with the same loss
                assert np.array_equal(program(point).data, want_loss)

    @pytest.mark.parametrize("method", ["leat", "image_attack"])
    @pytest.mark.parametrize("archetype", zoo.ARCHETYPES)
    def test_shares_the_tape_steps_and_holds_no_intermediate(self, archetype, method,
                                                              monkeypatch):
        model = zoo.build_model(archetype, seed=68)
        X = generate_dataset(seed=69, count=2, shape=(8, 8, 1)).images
        objective, loss_fn = objective_and_definition(model, method, X, 70)
        bind_tapes = []

        class KeptTape(ad.Tape):
            def __init__(self):
                super().__init__()
                bind_tapes.append(self)

        monkeypatch.setattr(ad, "Tape", KeptTape)
        bound = objective.bind(model, X)
        monkeypatch.undo()
        (bind_tape,) = bind_tapes
        record_tape, x, loss = record(loss_fn, X)
        # a program compiled here, and the one bind compiled from its reference
        # pass, whose frozen reference must be a copy of the recorded output
        for program, tape in ((ad.compile(loss, x), record_tape), (bound, bind_tape)):
            steps, outputs = recorded(tape), recorded_outputs(tape)
            assert len(program.steps) == len(steps) > 0
            assert all(got is want for got, want in zip(program.steps, steps))
            consts = [c for step in program.steps for c in step.consts if c is not None]
            assert consts and not any(np.shares_memory(a, out) for a in consts for out in outputs)
            # the tape keeps no VJP and so no kernel temporary (say, mse's difference):
            # each array it reaches is a recorded output, a constant or the watched array
            watched_array = [t.data for t, slot in tape._slots.items() if slot == 0]
            kept = {id(a) for a in outputs + consts + watched_array}
            reached = reachable_arrays(tape)
            assert reached
            assert [a.shape for a in reached if id(a) not in kept] == []

    def test_program_nested_in_a_recorded_loss_matches_finite_differences(self):
        # the program is one op, whose VJP is seeded with scale's gradient, not ones
        model = zoo.build_model("swapper", seed=71)
        X = generate_dataset(seed=72, count=2, shape=(8, 8, 1)).images
        attrs = zoo.sample_attribute_set(model, 3, 0, [73]).known
        p = ImageAttackObjective({model.name: attrs}).bind(model, X)

        def f(v):
            return ad.add(ad.scale(p(v), 3.0), ad.mse_loss(v, ad.Tensor(np.zeros(X.shape)), 3))

        x0 = ad.Tensor(np.clip(X.data + np.random.default_rng(74).uniform(-0.05, 0.05, X.shape),
                               0.0, 1.0))
        tape, x, loss = record(f, x0)
        assert [rec.op for rec in recorded(tape)] == ["program", "scale", "mse", "add"]
        g_fd = ad.finite_difference_gradient(lambda v: float(f(v).data.sum()), x0)
        assert rel_err(ad.backward(loss, x).data, g_fd.data) < 1e-7

    def test_wrong_shape_rejected(self):
        w = ad.Tensor(np.ones((2, 3)))
        _, x, loss = record(lambda v: ad.mse_loss(
            ad.forward_affine(v, w, ad.Tensor(np.zeros(2))), ad.Tensor(np.zeros((4, 2)))),
            ad.Tensor(np.zeros((4, 3))))
        program = ad.compile(loss, x)
        for shape in ((5, 3), (3,), (4, 3, 1)):
            with pytest.raises(ShapeError):
                ad.run_program(program, np.zeros(shape))

    @pytest.mark.parametrize("source", ["watched", "from_input"])
    def test_tracked_weight_raises(self, source):
        rng = np.random.default_rng(65)
        x0, w0, b = (ad.Tensor(rng.normal(size=s)) for s in ((6,), (3, 2), (3,)))
        tape = ad.Tape()
        with ad.recording(tape):
            # the watched weight itself, or one computed from the watched input
            x = tape.watch(w0 if source == "watched" else x0)
            w = x if source == "watched" else ad.reshape(x, (3, 2))
            loss = ad.mse_loss(ad.forward_affine(ad.Tensor([1.0, 2.0]), w, b),
                               ad.Tensor(np.zeros(3)))
            loss = ad.add(loss, ad.mse_loss(x, ad.Tensor(np.zeros(x.shape))))
        with pytest.raises(LineageError, match="affine"):
            ad.backward(loss, x)
        program = ad.compile(loss, x)
        with pytest.raises(LineageError, match="affine"):
            ad.run_program(program, x.data)

    def test_keeps_no_tape_and_constants_once(self):
        # the off-tape term enters as a constant; the tape can go once compiled
        rng = np.random.default_rng(66)
        w, c = ad.Tensor(rng.normal(size=(3, 4))), ad.Tensor(rng.normal(size=3))
        target = ad.Tensor(rng.normal(size=(2, 3)))

        def loss_fn(v):
            bias = ad.activation(c, "tanh")  # no tracked input: computed once, when recorded
            return ad.mse_loss(ad.forward_affine(v, w, bias, "tanh"), target, 1)

        x0 = ad.Tensor(rng.normal(size=(2, 4)))
        tape, x, loss = record(loss_fn, x0)
        program = ad.compile(loss, x)
        alive = weakref.ref(tape)
        gc.disable()
        try:
            del tape, x, loss
            assert alive() is None
        finally:
            gc.enable()
        x1 = ad.Tensor(rng.normal(size=(2, 4)))
        for got, want in zip(ad.run_program(program, x1.data), eager(loss_fn, x1)):
            assert np.array_equal(got, want)

    def test_strided_constant_gives_the_recorded_bits(self):
        # x + a column-major constant is column-major; like Tensor._wrap, the
        # program makes it dense before the next kernel reads it
        rng = np.random.default_rng(67)
        const = ad.Tensor._wrap(np.asfortranarray(rng.normal(size=(3, 4))), dense=False)
        w, b = ad.Tensor(rng.normal(size=(2, 4))), ad.Tensor(np.zeros(2))

        def loss_fn(v):
            h = ad.forward_affine(ad.add(v, const), w, b, "tanh")
            return ad.mse_loss(h, ad.Tensor(np.zeros((3, 2))), 1)

        x0 = ad.Tensor(rng.normal(size=(3, 1)))
        _, x, loss = record(loss_fn, x0)
        program = ad.compile(loss, x)
        x1 = ad.Tensor(rng.normal(size=(3, 1)))
        for got, want in zip(ad.run_program(program, x1.data), eager(loss_fn, x1)):
            assert np.array_equal(got, want)

    def test_needs_a_recorded_loss(self):
        tape = ad.Tape()
        x = tape.watch(ad.Tensor([1.0]))
        with pytest.raises(LineageError):
            ad.compile(ad.mse_loss(x, ad.Tensor([0.0])), x)  # recorded on no tape
        with ad.recording(tape):
            y = ad.reshape(x, (1,))
            loss = ad.mse_loss(y, ad.Tensor([0.0]))
        # not tracked by the tape; a recorded intermediate, whose program would
        # ignore its input and replay the recorded values
        for wrt in (ad.Tensor([1.0]), y):
            for differentiate in (ad.compile, ad.backward):
                with pytest.raises(LineageError, match="not watched"):
                    differentiate(loss, wrt)


class TestFiniteDifference:
    def test_sum_of_squares(self):
        g = ad.finite_difference_gradient(
            lambda t: float(np.sum(t.data ** 2)), ad.Tensor([1.0, 2.0])
        )
        assert np.max(np.abs(g.data - np.array([2.0, 4.0]))) < 1e-6

    def test_constant_function(self):
        g = ad.finite_difference_gradient(lambda t: 3.25, ad.Tensor([1.0, -1.0, 0.5]))
        assert np.max(np.abs(g.data)) < 1e-9

    def test_cross_check_against_backward(self):
        rng = np.random.default_rng(13)
        target = ad.Tensor(rng.normal(size=4))
        x0 = ad.Tensor(rng.normal(size=4))

        def f(xv):
            return ad.mse_loss(xv, target)

        tape = ad.Tape()
        with ad.recording(tape):
            x = tape.watch(x0)
            loss = f(x)
        g = ad.backward(loss, x)
        g_fd = ad.finite_difference_gradient(f, x0)
        assert rel_err(g.data, g_fd.data) < 1e-5

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            ad.finite_difference_gradient(lambda t: 0.0, ad.Tensor([1.0]), h=0.0)


class TestParameterSet:
    def test_count_and_access(self):
        ps = ad.ParameterSet(tensors={
            "w": ad.Tensor(np.zeros((3, 4))),
            "b": ad.Tensor(np.zeros(3)),
        })
        assert ps["w"].shape == (3, 4)
        assert ps.names() == ("w", "b")
