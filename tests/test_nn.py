import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pricebench.market import derive_rng
from pricebench.marl.maddpg import MaddpgHyper
from pricebench.marl.madqn import DqnHyper
from pricebench.nn import (
    CHUNK,
    Adam,
    DenseNet,
    ReplayBuffer,
    ShapeError,
    TrainingError,
    Workspace,
    _layer_views,
    exploration_rate,
    hard_update,
    soft_update,
)


def finite_difference_check(net, x, rng, n_coords=100, h=1e-5):
    """Central-difference oracle over randomly sampled coordinates of `flat`,
    against the same coordinates of `grad`."""
    upstream = rng.normal(size=net.layer_sizes[-1])
    _, cache = net.forward_cached(x)
    net.backward(cache, upstream)

    def loss():
        return float(np.dot(net.forward(x), upstream))

    worst = 0.0
    for i in rng.integers(net.flat.size, size=n_coords):
        orig = net.flat[i]
        net.flat[i] = orig + h
        up = loss()
        net.flat[i] = orig - h
        dn = loss()
        net.flat[i] = orig
        fd = (up - dn) / (2 * h)
        worst = max(worst, abs(fd - net.grad[i]) / max(abs(fd), abs(net.grad[i]), 1e-8))
    return worst


def _input_grad(net, dz1, squeeze):
    """The input gradient dz1 @ W1 that backward leaves to its caller, as the
    allocating reference forms it (`squeeze`: the forward took one sample)."""
    dz = dz1[..., None, :] if squeeze else dz1
    g = dz @ net.weights[0]
    return g[..., 0, :] if squeeze else g


class TestForward:
    def test_zero_weights_bias_output(self):
        rng = derive_rng(0, "net")
        net = DenseNet([3, 2], ["linear"], rng)
        net.weights[0][:] = 0.0
        net.biases[0][:] = [1.5, -2.0]
        assert np.allclose(net.forward(np.ones(3)), [1.5, -2.0])

    def test_identity_layer(self):
        rng = derive_rng(0, "net")
        net = DenseNet([4, 4], ["linear"], rng)
        net.weights[0][:] = np.eye(4)
        net.biases[0][:] = 0.0
        x = rng.normal(size=4)
        assert np.allclose(net.forward(x), x)

    def test_tanh_output_bounded(self):
        rng = derive_rng(1, "net")
        net = DenseNet([4, 8, 2], ["relu", "tanh"], rng)
        for _ in range(20):
            y = net.forward(rng.normal(size=4) * 10)
            assert np.all(np.abs(y) < 1.0)

    def test_dimension_mismatch(self):
        net = DenseNet([3, 2], ["linear"], derive_rng(0, "net"))
        with pytest.raises(ShapeError):
            net.forward(np.ones(5))

    def test_finite_outputs(self):
        rng = derive_rng(2, "net")
        net = DenseNet([6, 32, 16, 3], ["relu", "relu", "linear"], rng)
        y = net.forward(rng.normal(size=(10, 6)) * 100)
        assert np.all(np.isfinite(y))


class TestBackward:
    def test_scalar_linear_hand_gradient(self):
        net = DenseNet([1, 1], ["linear"], derive_rng(0, "net"))
        net.weights[0][:] = 2.0
        net.biases[0][:] = 0.5
        _, cache = net.forward_cached(np.array([3.0]))
        net.backward(cache, np.array([1.0]))
        assert net.grad[0] == pytest.approx(3.0)  # dw = x
        assert net.grad[1] == pytest.approx(1.0)  # db = 1

    def test_zero_upstream_zero_grads(self):
        rng = derive_rng(1, "net")
        net = DenseNet([3, 5, 2], ["relu", "linear"], rng)
        _, cache = net.forward_cached(rng.normal(size=3))
        net.backward(cache, np.zeros(2))
        assert np.all(net.grad == 0)

    @pytest.mark.parametrize(
        "sizes,acts",
        [
            ([4, 8, 2], ["relu", "tanh"]),
            ([5, 16, 8, 1], ["relu", "relu", "linear"]),
            ([3, 8, 3], ["tanh", "linear"]),
        ],
    )
    def test_matches_finite_differences(self, sizes, acts):
        rng = derive_rng(hash(tuple(sizes)) % 1000, "fd")
        net = DenseNet(sizes, acts, rng)
        worst = finite_difference_check(net, rng.normal(size=sizes[0]), rng)
        assert worst < 1e-4

    def test_input_gradient_matches_fd(self):
        rng = derive_rng(9, "fd-in")
        net = DenseNet([4, 8, 1], ["relu", "linear"], rng)
        x = rng.normal(size=4)
        _, cache = net.forward_cached(x)
        input_grad = net.backward(cache, np.array([1.0])) @ net.weights[0]
        h = 1e-6
        for i in range(4):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (net.forward(xp)[0] - net.forward(xm)[0]) / (2 * h)
            assert fd == pytest.approx(input_grad[i], rel=1e-4, abs=1e-8)


class TestAdam:
    def test_zero_gradient_no_change(self):
        net = DenseNet([2, 2], ["linear"], derive_rng(0, "adam"))
        before = net.flat.copy()
        Adam([net.flat]).step([net.flat], [np.zeros_like(net.flat)], lr=0.1)
        assert np.allclose(before, net.flat)

    def test_constant_gradient_step_approaches_lr(self):
        # Adam normalizes: with a constant gradient the step magnitude -> lr
        p = [np.array([0.0])]
        opt = Adam(p)
        g = [np.array([3.7])]
        prev = p[0].copy()
        for _ in range(200):
            prev = p[0].copy()
            opt.step(p, g, lr=0.01)
        assert abs(prev[0] - p[0][0]) == pytest.approx(0.01, rel=1e-3)

    def test_quadratic_bowl_convergence(self):
        p = [np.array([1.0])]
        opt = Adam(p)
        for _ in range(500):
            grad = [2.0 * p[0]]
            opt.step(p, grad, lr=0.01)
        assert abs(p[0][0]) < 0.05

    def test_nan_gradient_raises(self):
        p = [np.array([1.0])]
        with pytest.raises(TrainingError):
            Adam(p).step(p, [np.array([np.nan])], lr=0.01)

    def test_buffered_step_matches_reference_arithmetic(self):
        # the in-place, chunked step against the plain whole-array formulas
        rng = derive_rng(3, "adam-ref")
        sizes = (2 * CHUNK + 123, 7)  # crosses chunk boundaries; a second, short vector
        params = [rng.normal(size=n) for n in sizes]
        ref = [p.copy() for p in params]
        ref_m = [np.zeros(n) for n in sizes]
        ref_v = [np.zeros(n) for n in sizes]
        opt = Adam(params)
        b1, b2, eps, lr = Adam.beta1, Adam.beta2, Adam.eps, 0.01
        for t in range(1, 6):
            grads = [rng.normal(size=n) for n in sizes]
            opt.step(params, grads, lr)
            # Kingma & Ba's folded form: alpha_t = lr sqrt(c2) / c1, eps_hat = eps sqrt(c2)
            root2 = np.sqrt(1.0 - b2**t)
            alpha, eps_hat = lr * root2 / (1.0 - b1**t), eps * root2
            for p, m, v, g in zip(ref, ref_m, ref_v, grads):
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * g * g
                p -= m * alpha / (np.sqrt(v) + eps_hat)
            for mine, theirs in zip(params + opt.m + opt.v, ref + ref_m + ref_v):
                assert np.array_equal(mine, theirs)

    def test_tracks_textbook_update_past_the_bias_correction(self):
        # 1 - beta1**t rounds to 1.0 from t ~ 349 on; the folded step must keep tracking
        # the textbook p <- p - lr (m / c1) / (sqrt(v / c2) + eps) there as well
        rng = derive_rng(5, "adam-textbook")
        sizes = (CHUNK + 5, 9)
        params = [rng.uniform(1.0, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n) for n in sizes]
        ref = [p.copy() for p in params]
        ref_m = [np.zeros(n) for n in sizes]
        ref_v = [np.zeros(n) for n in sizes]
        opt = Adam(params)
        b1, b2, eps, lr = Adam.beta1, Adam.beta2, Adam.eps, 1e-3
        saturated, worst = 0, 0.0
        for t in range(1, 1001):
            grads = [rng.normal(size=n) for n in sizes]
            opt.step(params, grads, lr)
            correct1, correct2 = 1.0 - b1**t, 1.0 - b2**t
            saturated += correct1 == 1.0
            for p, m, v, g in zip(ref, ref_m, ref_v, grads):
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * g * g
                p -= lr * (m / correct1) / (np.sqrt(v / correct2) + eps)
            for mine, theirs in zip(opt.m + opt.v, ref_m + ref_v):
                assert np.array_equal(mine, theirs)
            for mine, theirs in zip(params, ref):
                worst = max(worst, float(np.max(np.abs(mine - theirs) / np.abs(theirs))))
        assert saturated > 600
        assert worst < 1e-12

    def test_moments_allocated_by_the_first_step(self):
        params = [np.ones(5), np.ones(3)]
        opt = Adam(params)
        assert opt.m == [] and opt.v == [] and opt.t == 0
        with pytest.raises(TrainingError):  # a non-finite first step allocates nothing
            opt.step(params, [np.zeros(5), np.full(3, np.nan)], lr=0.01)
        assert opt.m == [] and opt.v == [] and opt.t == 0
        assert all(np.array_equal(p, np.ones(p.size)) for p in params)
        opt.step(params, [np.ones(5), np.ones(3)], lr=0.01)
        assert opt.t == 1 and [m.shape for m in opt.m] == [v.shape for v in opt.v] == [(5,), (3,)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_leaves_state_untouched(self, bad):
        rng = derive_rng(4, "adam-bad")
        params = [rng.normal(size=50), rng.normal(size=7)]
        opt = Adam(params)
        opt.step(params, [rng.normal(size=50), rng.normal(size=7)], lr=0.01)
        before = [a.copy() for a in params + opt.m + opt.v]
        grads = [rng.normal(size=50), rng.normal(size=7)]
        grads[1][3] = bad  # only the second vector is bad: the first must not move either
        with pytest.raises(TrainingError):
            opt.step(params, grads, lr=0.01)
        assert opt.t == 1
        assert all(np.array_equal(b, a) for b, a in zip(before, params + opt.m + opt.v))

    def test_moments_never_stick_at_a_subnormal(self):
        # an entry whose gradient stays 0 has m scaled by beta1 each step until it sticks
        # at a subnormal (after about 6,700 steps); the flush every FLUSH_EVERY steps sets
        # it to 0 within 64 steps and moves no parameter
        rng = derive_rng(6, "adam-subnormal")
        params = [rng.normal(size=16)]
        ref_params = [params[0].copy()]
        opt, ref = Adam(params), Adam(ref_params)
        ref.FLUSH_EVERY = 10**9  # the unflushed reference

        def subnormal(a):
            return (a != 0) & (np.abs(a) < np.finfo(float).tiny)

        frozen = np.arange(16) % 4 == 0
        first_ref_subnormal = None
        run = np.zeros(32, dtype=int)  # consecutive subnormal steps of each m and v entry
        longest = 0
        for t in range(9_000):
            g = rng.normal(size=16)
            if t >= 100:
                g[frozen] = 0.0
            opt.step(params, [g], lr=1e-3)
            ref.step(ref_params, [g], lr=1e-3)
            if first_ref_subnormal is None and subnormal(ref.m[0]).any():
                first_ref_subnormal = t
            run = np.where(subnormal(np.concatenate(opt.m + opt.v)), run + 1, 0)
            longest = max(longest, int(run.max()))

        assert 6_000 < first_ref_subnormal < 7_500
        assert 0 < longest <= 64
        assert subnormal(ref.m[0][frozen]).all()
        assert not any(subnormal(a).any() for a in opt.m + opt.v)
        assert np.array_equal(opt.m[0][frozen], np.zeros(frozen.sum()))
        assert np.array_equal(params[0], ref_params[0])

    def test_flush_reaches_every_chunk(self):
        # subnormal moments in the last chunk of a long vector and in a short second one
        sizes = (2 * CHUNK + 123, 7)
        params = [np.ones(n) for n in sizes]
        opt = Adam(params)
        opt.step(params, [np.ones(n) for n in sizes], lr=1e-3)
        for moment in opt.m + opt.v:
            moment[-3:] = 5e-320
        opt.t = Adam.FLUSH_EVERY - 1  # the next step flushes
        opt.step(params, [np.zeros(n) for n in sizes], lr=1e-3)
        assert not any(moment[-3:].any() for moment in opt.m + opt.v)
        assert all(moment[:-3].all() for moment in opt.m + opt.v)

    def test_strided_parameters_rejected(self):
        team = DenseNet([3, 2], ["linear"], [derive_rng(i, "adam") for i in range(2)])
        params = [team.weights[0], team.biases[0]]  # member-strided views of flat
        with pytest.raises(ShapeError):
            Adam(params).step(params, [np.zeros(p.shape) for p in params], lr=0.01)


# production shapes: (layer sizes, activations, whether the team shares one input batch)
TEAM_SHAPES = {
    "maddpg_critic": ([260, 128, 64, 1], ["relu", "relu", "linear"], True),
    "maddpg_actor": ([60, 64, 64, 5], ["relu", "relu", "tanh"], False),
    "q_net": ([60, 128, 64, 32, 105], ["relu", "relu", "relu", "linear"], False),
}


def _team(sizes, acts, members=4, seed=0):
    """A team net, its member views, and single nets drawn as its members are.

    The members share one generator, so member i draws right after member
    i - 1, as the i-th of a row of single nets drawn from that generator does.
    """
    team = DenseNet(sizes, acts, [derive_rng(seed, "team")] * members)
    rng = derive_rng(seed, "team")
    singles = [DenseNet(sizes, acts, rng) for _ in range(members)]
    return team, [team.member(i) for i in range(members)], singles


class TestTeamNets:
    @pytest.mark.parametrize("name", TEAM_SHAPES)
    def test_team_pass_equals_member_passes(self, name):
        sizes, acts, shared = TEAM_SHAPES[name]
        team, _, copies = _team(sizes, acts)
        rng = derive_rng(1, "team-pass", name)
        m, b = len(copies), 64
        x = rng.normal(size=(b, sizes[0]) if shared else (m, b, sizes[0]))
        up = rng.normal(size=(m, b, sizes[-1]))
        y, cache = team.forward_cached(x)
        team.backward(cache, up)
        grad = team.grad.copy()
        # a pass without params leaves grad as it was
        dz1 = team.backward(cache, 2.0 * up, params=False)
        assert np.array_equal(team.grad, grad)
        assert y.shape == (m, b, sizes[-1]) and dz1.shape == (m, b, sizes[1])
        for i, (net, grad_i) in enumerate(zip(copies, grad.reshape(m, -1))):
            y_i, cache_i = net.forward_cached(x if shared else x[i])
            dz1_i = net.backward(cache_i, 2.0 * up[i])
            assert np.array_equal(y[i], y_i)
            assert np.array_equal(dz1[i], dz1_i)
            net.backward(cache_i, up[i])
            assert np.array_equal(grad_i, net.grad)

    def test_team_gradient_matches_finite_differences(self):
        sizes, acts, _ = TEAM_SHAPES["maddpg_critic"]
        team, _, _ = _team(sizes, acts, members=3)
        rng = derive_rng(2, "team-fd")
        x = rng.normal(size=(4, sizes[0]))
        up = rng.normal(size=(3, 4, 1))
        _, cache = team.forward_cached(x)
        team.backward(cache, up)
        grad = team.grad.copy()

        def loss():
            return float(np.sum(team.forward(x) * up))

        # perturb through flat: ravel() of a strided team view is a copy
        h, worst = 1e-5, 0.0
        for i in rng.choice(team.flat.size, size=100, replace=False):
            orig = team.flat[i]
            team.flat[i] = orig + h
            up_loss = loss()
            team.flat[i] = orig - h
            dn_loss = loss()
            team.flat[i] = orig
            fd = (up_loss - dn_loss) / (2 * h)
            worst = max(worst, abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-8))
        assert worst < 1e-4

    def test_member_and_team_views_alias_both_ways(self):
        team, nets, copies = _team([6, 5, 2], ["relu", "linear"], members=3)
        assert all(np.array_equal(net.flat, copy.flat) for net, copy in zip(nets, copies))
        assert all(np.shares_memory(net.flat, team.flat) and net.members is None for net in nets)
        nets[1].weights[0][2, 3] = 7.0
        assert team.weights[0][1, 2, 3] == 7.0
        team.biases[1][2, 0] = -4.0
        assert nets[2].biases[1][0] == -4.0
        size = nets[0].flat.size
        assert np.array_equal(nets[2].flat, team.flat[2 * size :])
        # a member-level update writes that member's slice of the team, and no other
        source = copies[0].clone()
        source.flat[:] = 3.0
        rest = team.flat[size:].copy()
        soft_update(nets[0], source, 1.0)
        assert np.all(team.flat[:size] == 3.0)
        assert np.array_equal(team.flat[size:], rest)

    def test_team_single_sample_gives_one_row_per_member(self):
        team, _, copies = _team([6, 5, 2], ["relu", "tanh"], members=3)
        x = derive_rng(6, "team-x").normal(size=6)
        y, cache = team.forward_cached(x)
        dz1 = team.backward(cache, np.ones((3, 2)))
        assert y.shape == (3, 2) and dz1.shape == (3, 5)
        for i, (net, grad_i) in enumerate(zip(copies, team.grad.reshape(3, -1))):
            y_i, cache_i = net.forward_cached(x)
            dz1_i = net.backward(cache_i, np.ones(2))
            assert np.array_equal(y[i], y_i) and np.array_equal(dz1[i], dz1_i)
            assert np.array_equal(grad_i, net.grad)

    def test_team_input_batches_must_match_members(self):
        team, _, _ = _team([6, 5, 2], ["relu", "linear"], members=3)
        with pytest.raises(ShapeError):
            team.forward(np.zeros((2, 4, 6)))

    @pytest.mark.parametrize("name", TEAM_SHAPES)
    def test_members_draw_from_their_own_generators(self, name):
        # member i's parameters are those of a single net drawn from generator i alone,
        # whatever the other members draw
        sizes, acts, _ = TEAM_SHAPES[name]
        team = DenseNet(sizes, acts, [derive_rng(8, "member", i) for i in range(3)])
        for i in range(3):
            single = DenseNet(sizes, acts, derive_rng(8, "member", i))
            assert np.array_equal(team.member(i).flat, single.flat)
            assert all(np.array_equal(w[i], w_i) for w, w_i in zip(team.weights, single.weights))

    def test_member_outside_the_team_rejected(self):
        team, _, singles = _team([3, 2], ["linear"], members=2)
        for net, i in ((team, 2), (team, -1), (singles[0], 0)):
            with pytest.raises(ShapeError):
                net.member(i)
        with pytest.raises(ShapeError):
            DenseNet([3, 2], ["linear"], [])


def _critic(members):
    """A MADDPG critic for a team of `members` (a single net for None), and its action columns.

    The critic input is every member's 60-wide state, then every member's 5 actions.
    """
    n, width = members or 1, 5
    sizes, acts, _ = TEAM_SHAPES["maddpg_critic"]
    sizes = [n * (60 + width), *sizes[1:]]
    if members is None:
        return DenseNet(sizes, acts, derive_rng(6, "critic")), n * 60, width
    return _team(sizes, acts, members=members, seed=6)[0], n * 60, width


class TestInputColumns:
    """Columns of the input gradient from the dz1 that backward returns, as
    MADDPG's actor update takes each member's own action columns."""

    @pytest.mark.parametrize("members", [None, 1, 3, 4])
    @pytest.mark.parametrize("batch", [(), (64,)])
    def test_matches_the_columns_of_the_full_input_gradient(self, members, batch):
        net, joint_dim, width = _critic(members)
        rng = derive_rng(7, "columns", members, batch)
        x = rng.normal(size=batch + (net.layer_sizes[0],))
        y, cache = net.forward_cached(x)
        up = rng.normal(size=y.shape)
        dz1 = net.backward(cache, up, params=False).copy()
        full = _input_grad(net, dz1, cache["squeeze"])
        for i in range(members or 1):
            lo = joint_dim + i * width
            if members is None:
                own, expected = dz1 @ net.weights[0][:, lo : lo + width], full[..., lo : lo + width]
            else:
                own = dz1[i] @ net.weights[0][i, :, lo : lo + width]
                expected = full[i, ..., lo : lo + width]
            assert own.shape == batch + (width,)
            assert np.abs(own - expected).max() <= 1e-12 * np.abs(expected).max()
        # dz1 does not depend on whether the weight gradients are computed
        assert np.array_equal(net.backward(cache, up), dz1)


def _reference_forward(net, x):
    """The allocating forward pass that the buffered one replaced, kept verbatim."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    a = x[None, :] if squeeze else x
    pre, post = [], [a]
    for w, b, act in zip(net.weights, net.biases, net.activations):
        z = post[-1] @ w.swapaxes(-1, -2) + b[..., None, :]
        pre.append(z)
        post.append(np.maximum(z, 0.0) if act == "relu" else np.tanh(z) if act == "tanh" else z)
    y = post[-1][..., 0, :] if squeeze else post[-1]
    return y, {"pre": pre, "post": post, "squeeze": squeeze}


def _reference_backward(net, cache, upstream, params=True, inputs=True):
    """The allocating backward pass that the buffered one replaced: its own
    grad vector (None without `params`), dz1, and the input gradient (None
    without `inputs`)."""
    upstream = np.asarray(upstream, dtype=float)
    if cache["squeeze"]:
        upstream = upstream[..., None, :]
    pre, post = cache["pre"], cache["post"]
    grad = np.zeros_like(net.flat)
    grad_weights, grad_biases = _layer_views(net.layer_sizes, grad, net.members)
    g = upstream
    for layer in reversed(range(len(net.weights))):
        act, z, a = net.activations[layer], pre[layer], post[layer + 1]
        if act == "relu":
            dz = g * (z > 0).astype(z.dtype)
        elif act == "tanh":
            dz = g * (1.0 - a * a)
        else:
            dz = g * np.ones_like(z)
        if params:
            np.matmul(dz.swapaxes(-1, -2), post[layer], out=grad_weights[layer])
            np.sum(dz, axis=-2, out=grad_biases[layer])
        if layer or inputs:
            g = dz @ net.weights[layer]
    squeeze = cache["squeeze"]
    dz1 = dz[..., 0, :] if squeeze else dz
    input_grad = (g[..., 0, :] if squeeze else g) if inputs else None
    return grad if params else None, dz1, input_grad


def _same_bits(a, b) -> bool:
    """Equal shape and equal bytes: stricter than array_equal (signed zeros, NaN payloads)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# every activation in every position, plus the production team shapes
BUFFER_NETS = {
    "relu-tanh-linear": ([5, 7, 6, 3], ["relu", "tanh", "linear"]),
    "tanh-linear-relu": ([5, 7, 6, 3], ["tanh", "linear", "relu"]),
    "linear-relu-tanh": ([5, 7, 6, 3], ["linear", "relu", "tanh"]),
    **{name: (sizes, acts) for name, (sizes, acts, _) in TEAM_SHAPES.items()},
}
# (members, input shape after the feature axis is appended)
BUFFER_INPUTS = {
    "single-1d": (None, ()),
    "single-batch": (None, (16,)),
    "team-1d": (3, ()),
    "team-shared": (3, (16,)),
    "team-per-member": (3, (3, 16)),
}


class TestBufferedPasses:
    """The buffered passes equal the allocating ones bit for bit, and keep the ownership rule."""

    @pytest.mark.parametrize("net_name", BUFFER_NETS)
    @pytest.mark.parametrize("input_name", BUFFER_INPUTS)
    @pytest.mark.parametrize("params", [True, False])
    @pytest.mark.parametrize("inputs", [True, False])  # also form the input gradient from dz1
    def test_equals_allocating_reference(self, net_name, input_name, params, inputs):
        sizes, acts = BUFFER_NETS[net_name]
        members, lead = BUFFER_INPUTS[input_name]
        rng = derive_rng(11, "buffers", net_name, input_name)
        net = DenseNet(sizes, acts, rng) if members is None else _team(sizes, acts, members)[0]
        x = rng.normal(size=lead + (sizes[0],)) * 2.0
        y_ref, cache_ref = _reference_forward(net, x)
        up = rng.normal(size=y_ref.shape)
        up[..., 0] = -0.0  # a signed zero meets dead relu units and linear layers
        grad_ref, dz1_ref, input_grad_ref = _reference_backward(net, cache_ref, up, params, inputs)

        y, cache = net.forward_cached(x)
        assert _same_bits(y, y_ref)
        assert all(_same_bits(a, b) for a, b in zip(cache["post"], cache_ref["post"]))
        for _ in range(2):  # a second backward on the same cache gives the same again
            dz1 = net.backward(cache, up, params=params)
            assert _same_bits(dz1, dz1_ref)
            assert (net.grad is None) == (not params)
            if params:
                assert _same_bits(net.grad, grad_ref)
            if inputs:
                assert _same_bits(_input_grad(net, dz1, cache["squeeze"]), input_grad_ref)
        assert _same_bits(net.forward(x), y_ref)

    def test_successive_forward_outputs_stay_distinct(self):
        rng = derive_rng(12, "owned")
        net = DenseNet([4, 8, 2], ["relu", "tanh"], rng)
        x1, x2 = rng.normal(size=(2, 5, 4))
        y1 = net.forward(x1)
        kept = y1.copy()
        y2 = net.forward(x2)
        assert not np.shares_memory(y1, y2)
        assert _same_bits(y1, kept) and not np.array_equal(y1, y2)

    def test_same_shape_pass_reuses_buffers(self):
        net = DenseNet([4, 8, 2], ["relu", "tanh"], derive_rng(13, "reuse"))
        y1, _ = net.forward_cached(np.ones((5, 4)))
        y2, _ = net.forward_cached(np.zeros((5, 4)))
        assert np.shares_memory(y1, y2)

    def test_cache_survives_a_pass_of_another_shape(self):
        rng = derive_rng(14, "survive")
        team = _team([6, 5, 2], ["relu", "tanh"], members=3)[0]
        x, up = rng.normal(size=(3, 7, 6)), rng.normal(size=(3, 7, 2))
        y, cache = team.forward_cached(x)
        kept_y = y.copy()
        dz1 = team.backward(cache, up)
        kept = team.grad.copy(), dz1.copy()
        # a pass at another batch size, and a single-sample one, in between
        for other in (rng.normal(size=(3, 4, 6)), rng.normal(size=6)):
            _, other_cache = team.forward_cached(other)
            team.backward(other_cache, np.ones((3, 4, 2) if other.ndim == 3 else (3, 2)))
        assert _same_bits(y, kept_y)
        assert _same_bits(dz1, kept[1])
        dz1 = team.backward(cache, up)
        assert _same_bits(team.grad, kept[0])
        assert _same_bits(dz1, kept[1])

    def test_soft_update_across_chunks_equals_formula(self):
        rng = derive_rng(15, "soft-chunks")
        target, online = (DenseNet([300, 200], ["linear"], rng) for _ in range(2))
        assert target.flat.size > CHUNK
        tau = 0.3
        for _ in range(2):
            expected = target.flat * (1.0 - tau) + online.flat * tau
            soft_update(target, online, tau)
            assert _same_bits(target.flat, expected)


class TestReplayBuffer:
    def test_eviction_order(self):
        buf = ReplayBuffer(capacity=5, recency_decay=0.999)
        for i in range(8):
            buf.push(i, i + 1, i)
        assert len(buf) == 5
        # 0 and 1 overwritten in place; 2's row is now the slot of the newest's next state
        assert buf.fields[0].tolist() == [6, 7, 2, 3, 4, 5]
        assert buf.states.tolist() == [6, 7, 8, 3, 4, 5]

    def test_single_entry_always_sampled(self):
        buf = ReplayBuffer(capacity=4, recency_decay=0.999)
        buf.push("only", "only")
        rng = derive_rng(0, "buf")
        assert set(buf.states[buf.sample(16, rng)]) == {"only"}

    def test_uniform_when_decay_one(self):
        buf = ReplayBuffer(capacity=4, recency_decay=1.0)
        for i in range(4):
            buf.push(i, i + 1)
        rng = derive_rng(1, "buf")
        draws = buf.states[buf.sample(100_000, rng)]
        freqs = np.bincount(draws, minlength=4) / len(draws)
        assert np.all(np.abs(freqs - 0.25) < 0.02)

    def test_recency_bias_matches_analytic_weights(self):
        buf = ReplayBuffer(capacity=3, recency_decay=0.9)
        for i in range(3):
            buf.push(i, i + 1)  # entry 2 newest (age 0), 0 oldest (age 2)
        rng = derive_rng(2, "buf")
        draws = buf.states[buf.sample(100_000, rng)]
        freqs = np.bincount(draws, minlength=3) / len(draws)
        weights = np.array([0.81, 0.9, 1.0])
        expected = weights / weights.sum()
        assert np.all(np.abs(freqs - expected) < 0.02)

    def test_empty_buffer_unavailable(self):
        with pytest.raises(ValueError):
            ReplayBuffer(capacity=2, recency_decay=0.999).sample(1, derive_rng(0, "buf"))

    def test_first_push_allocates_every_row_keeping_order(self):
        buf = ReplayBuffer(capacity=10, recency_decay=0.999)
        for i in range(12):
            buf.push(np.full(2, i), np.full(2, i + 1), float(i), i % 2 == 0)
            assert len(buf.states) == len(buf.fields[0]) == 11
        states, (rewards, done) = buf.states, buf.fields
        assert states.shape == (11, 2) and rewards.dtype == float and done.dtype == bool
        # row 0 holds the newest (11), slot 1 its next state, rows 2-10 the older nine
        assert rewards.tolist() == [11.0, 1.0, *range(2, 11)]
        assert states[:, 0].tolist() == [11.0, 12.0, *range(2, 11)]

    def test_gather_writes_kept_arrays(self):
        buf = ReplayBuffer(capacity=8, recency_decay=0.999)
        for i in range(8):
            buf.push(np.arange(3.0) + i, np.arange(3.0) + i + 1, i)
        work = Workspace()
        rows = buf.sample(5, derive_rng(3, "buf"))
        states, next_states, bins = buf.gather(rows, work)
        assert np.array_equal(states, buf.states[rows]) and np.array_equal(bins, rows)
        assert np.array_equal(next_states, states + 1)
        again = buf.gather(buf.sample(5, derive_rng(4, "buf")), work)
        assert again[0] is states and again[1] is next_states and again[2] is bins


class TestSoftUpdate:
    def _pair(self):
        rng = derive_rng(3, "soft")
        online = DenseNet([2, 3], ["linear"], rng)
        target = DenseNet([2, 3], ["linear"], rng)
        return target, online

    def test_tau_one_copies(self):
        target, online = self._pair()
        soft_update(target, online, 1.0)
        assert np.allclose(target.flat, online.flat)

    def test_tau_zero_freezes(self):
        target, online = self._pair()
        before = target.flat.copy()
        soft_update(target, online, 0.0)
        assert np.allclose(before, target.flat)

    def test_halfway(self):
        target, online = self._pair()
        target.weights[0][:] = 0.0
        target.biases[0][:] = 0.0
        online.weights[0][:] = 2.0
        online.biases[0][:] = 2.0
        soft_update(target, online, 0.5)
        assert np.allclose(target.weights[0], 1.0)

    def test_contraction_rate(self):
        target, online = self._pair()
        online.weights[0][:] = 1.0
        target.weights[0][:] = 0.0
        gap0 = np.abs(online.weights[0] - target.weights[0]).max()
        for _ in range(1000):
            soft_update(target, online, 0.001)
        gap = np.abs(online.weights[0] - target.weights[0]).max()
        assert gap / gap0 == pytest.approx(0.999**1000, rel=1e-6)

    def test_architecture_mismatch(self):
        rng = derive_rng(4, "soft")
        with pytest.raises(ShapeError):
            soft_update(
                DenseNet([2, 3], ["linear"], rng), DenseNet([2, 4], ["linear"], rng), 0.5
            )
        with pytest.raises(ShapeError):
            hard_update(DenseNet([2, 3], ["linear"], rng), DenseNet([2, 4], ["linear"], rng))

    def test_hard_update(self):
        target, online = self._pair()
        hard_update(target, online)
        assert np.array_equal(target.flat, online.flat) and not np.shares_memory(target.flat, online.flat)


def _epsilon(episode):
    """The default ε-greedy rate of a Q-learner at `episode`."""
    hp = DqnHyper()
    return exploration_rate(hp.epsilon_start, hp.epsilon_decay, hp.epsilon_floor, episode)


class TestSchedules:
    def test_epsilon_greedy_anchors(self):
        assert _epsilon(0) == 1.0
        assert _epsilon(1) == pytest.approx(0.995, abs=1e-12)

    def test_noise_anchors(self):
        hp = MaddpgHyper()
        assert exploration_rate(hp.noise_start, hp.noise_decay, hp.noise_floor, 1) == (
            pytest.approx(0.2 * 0.9995, abs=1e-12)
        )

    def test_floor_binds(self):
        assert _epsilon(10**6) == 0.05

    @given(st.integers(min_value=0, max_value=5000))
    @settings(max_examples=50)
    def test_monotone_and_floored(self, e):
        assert exploration_rate(1.0, 0.99, 0.03, e + 1) <= exploration_rate(1.0, 0.99, 0.03, e)
        assert exploration_rate(1.0, 0.99, 0.03, e) >= 0.03

    def test_negative_episode_rejected(self):
        with pytest.raises(ValueError, match="episode"):
            exploration_rate(1.0, 0.99, 0.03, -1)


class TestTransitionAndIO:
    def test_dimension_mismatch(self):
        buf = ReplayBuffer(capacity=4, recency_decay=0.999)
        buf.push(np.zeros(3), np.zeros(3), 0, 0.0, False)
        with pytest.raises(ShapeError):  # a next state of another shape
            buf.push(np.zeros(3), np.zeros(4), 0, 0.0, False)
        with pytest.raises(ShapeError):  # a scalar would broadcast over the row
            buf.push(np.zeros(3), 1.0, 0, 0.0, False)
        with pytest.raises(ShapeError):  # a field missing
            buf.push(np.zeros(3), np.zeros(3), 0, 0.0)
        assert len(buf) == 1
