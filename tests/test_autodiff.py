"""Tensor arithmetic and reverse-mode gradient checks."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.mse_loss(ad.Tensor([1.0]), ad.Tensor([1.0, 2.0]))


class TestBackward:
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

    def test_add_rejects_shapes_that_do_not_broadcast(self):
        with pytest.raises(ShapeError):
            ad.add(ad.Tensor([[1.0, 2.0]]), ad.Tensor(np.zeros((3, 3))))

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


# the generated oracle: random programs of the op kinds that src records
DIMS = st.integers(1, 3)
# (kind, activation) of each drawn op; a reshape only while the value has fewer than 4 axes
OPS = (("affine", None), ("affine", "tanh"), ("affine", "sigmoid"), ("residual", "tanh"),
       ("add", None), ("reshape", None))


def partner(draw, lead):
    """Leading axes of a bias or addend that broadcast against ``lead``.

    Each axis is equal, 1, or stretched against a size-1 axis. Leading axes
    may be left out (numpy's missing axes), or a front one added (the
    attribute fan-out).
    """
    axes = tuple(draw(st.sampled_from((1, 2, 3) if s == 1 else (s, 1))) for s in lead)
    axes = axes[len(axes) - draw(st.integers(0, len(axes))):]
    if len(axes) == len(lead) < 3 and draw(st.booleans()):
        axes = (draw(DIMS),) + axes
    return axes


@st.composite
def programs(draw):
    """(ops, target, axes, steps) of the loss ``mse(ops(x), target, axes)``, and points x0, x1.

    ``x`` has 0–2 leading axes of size 1–3. An op is ("affine", act, W, b),
    ("residual", "tanh", W, b) for ``h + tanh(W h + b)``, ("add", swap, c)
    for ``h + c`` (``c + h`` if swapped) or ("reshape", shape), which
    inserts a unit axis. ``steps`` names the op of each step it records.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = tuple(draw(DIMS) for _ in range(draw(st.integers(0, 2)) + 1))
    x0, x1 = (ad.Tensor(rng.normal(size=shape)) for _ in range(2))
    ops, steps = [], []
    for _ in range(draw(st.integers(1, 3))):
        kind, act = draw(st.sampled_from(OPS[:5 + (len(shape) < 4)]))
        if kind == "reshape":
            axis = draw(st.integers(0, len(shape)))
            shape = shape[:axis] + (1,) + shape[axis:]
            ops.append((kind, shape))
            steps.append(kind)
            continue
        d_in = shape[-1]
        d = draw(DIMS) if kind == "affine" else d_in
        lead = partner(draw, shape[:-1])
        const = ad.Tensor(rng.normal(size=lead + (d,)))
        shape = np.broadcast_shapes(shape[:-1], lead) + (d,)
        if kind == "add":
            ops.append((kind, draw(st.booleans()), const))
            steps.append(kind)
            continue
        ops.append((kind, act, ad.Tensor(0.5 * rng.normal(size=(d, d_in))), const))
        steps += ["affine" if act is None else f"affine_{act}"] + ["add"] * (kind == "residual")
    target = ad.Tensor(rng.uniform(size=shape))
    return ops, target, draw(st.integers(1, len(shape))), steps + ["mse"], x0, x1


def run_ops(ops, h, layer, add, reshape):
    """``ops`` applied to ``h``, with the arithmetic of each op kind given."""
    for kind, *args in ops:
        if kind == "reshape":
            h = reshape(h, args[0])
        elif kind == "add":
            swap, c = args
            h = add(c, h) if swap else add(h, c)
        else:
            act, w, b = args
            y = layer(h, w, b, act)
            h = add(h, y) if kind == "residual" else y
    return h


def numpy_loss(ops, target, axes, x):
    """The drawn loss at the array ``x`` in plain numpy, independent of the kernels."""
    def layer(h, w, b, act):
        v = np.einsum("...i,oi->...o", h, w) + b
        return np.tanh(v) if act == "tanh" else 1.0 / (1.0 + np.exp(-v)) if act else v

    arrays = [[a.data if isinstance(a, ad.Tensor) else a for a in op] for op in ops]
    d = run_ops(arrays, x, layer, np.add, np.reshape) - target.data
    return (d * d).mean(axis=tuple(range(-axes, 0)))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(programs())
def test_generated_program_matches_independent_references(drawn):
    """A drawn program against plain numpy, central differences and fresh recordings."""
    ops, target, axes, steps, x0, x1 = drawn

    def loss_fn(v):
        return ad.mse_loss(run_ops(ops, v, ad.forward_affine, ad.add, ad.reshape), target, axes)

    tape, x, loss = record(loss_fn, x0)
    program = ad.compile(loss, x)
    # one step per drawn op, so a fused activation is one op
    assert [step.op for step in program.steps] == steps
    # the loss, and its gradient against central differences of the numpy loss
    assert rel_err(loss.data, numpy_loss(ops, target, axes, x0.data)) < 1e-12
    g_fd = ad.finite_difference_gradient(lambda v: numpy_loss(ops, target, axes, v.data).sum(), x0)
    assert rel_err(ad.backward(loss, x).data, g_fd.data) < 1e-5
    # the tape is freed by reference counting, and the program reaches only its constants
    alive = weakref.ref(tape)
    gc.disable()
    try:
        del tape, x, loss
        assert alive() is None
    finally:
        gc.enable()
    consts = {id(c) for step in program.steps for c in step.consts if c is not None}
    assert {id(a) for a in reachable_arrays(program)} == consts
    # replayed at a second point, alone or called as one op, it gives a fresh recording's bits
    want = eager(loss_fn, x1)
    for got in (ad.run_program(program, x1.data), eager(program, x1)):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    # with a second consumer of x, x's gradient is summed in another order
    nested_loss, nested_grad = eager(lambda v: ad.add(program(v), ad.mse_loss(v, x0)), x1)
    flat_loss, flat_grad = eager(lambda v: ad.add(loss_fn(v), ad.mse_loss(v, x0)), x1)
    assert np.array_equal(nested_loss, flat_loss)
    assert rel_err(nested_grad, flat_grad) < 1e-14


class TestFiniteDifference:
    def test_sum_of_squares(self):
        g = ad.finite_difference_gradient(
            lambda t: float(np.sum(t.data ** 2)), ad.Tensor([1.0, 2.0])
        )
        assert np.max(np.abs(g.data - np.array([2.0, 4.0]))) < 1e-6

    def test_constant_function(self):
        g = ad.finite_difference_gradient(lambda t: 3.25, ad.Tensor([1.0, -1.0, 0.5]))
        assert np.max(np.abs(g.data)) < 1e-9

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
