"""The learning agents' shared week: state encoding, reward shaping, the one
learning-agent class (`TeamMember`), the team learner that every learner
kind builds on, and the ε-greedy choice that MADQN and QMIX share."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..environment import PricingAgentBase, recent
from ..features import DEMAND_WINDOW, demand_features, seasonal_encoding
from ..market import (
    ConfigError, MarketConfig, MarketObservation, ProductSpec, derive_rng, require_finite,
)
from ..nn import DenseNet, ReplayBuffer, ShapeError, Workspace, exploration_rate

STATE_SLOTS_PER_PRODUCT = 12

N_PRICE_BINS = 21

ACTION_SMOOTHING = 0.5  # EMA weight on the previous applied change


def check_hyper(hyper, counts: tuple[str, ...], widths: tuple[str, ...]) -> None:
    """Check a learner's hyper-parameters when they are built: every float
    finite, each field in `counts` and every layer width in `widths` at
    least 1, 0 < recency_decay <= 1, `gamma` and `tau` in [0, 1] and every
    learning rate (`lr`, `actor_lr`, `critic_lr`) at least 0. Raises
    ConfigError naming the field."""
    require_finite(hyper)
    for name, value in vars(hyper).items():
        if name in ("gamma", "tau") and not 0 <= value <= 1:
            raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if name in ("lr", "actor_lr", "critic_lr") and not value >= 0:
            raise ConfigError(f"{name} must be >= 0, got {value}")
    for name in counts:
        if not getattr(hyper, name) >= 1:
            raise ConfigError(f"{name} must be >= 1, got {getattr(hyper, name)}")
    for name in widths:
        if not all(width >= 1 for width in getattr(hyper, name)):
            raise ConfigError(f"every {name} width must be >= 1, got {getattr(hyper, name)}")
    if not 0 < hyper.recency_decay <= 1:
        raise ConfigError(f"recency_decay must be in (0, 1], got {hyper.recency_decay}")


def epsilon_greedy(
    q: Callable[[], np.ndarray], n_heads: int, n_bins: int, epsilon: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One bin per head: a uniform random bin with probability `epsilon`,
    else the head's greedy bin of `q()`, a (heads, bins) array.

    Every act draws the exploration mask and then the random bins, so the
    generator advances the same way whether or not a head exploits; `q` is
    called only when one does. np.argmax breaks ties toward the lowest bin.
    """
    explore = rng.random(n_heads) < epsilon
    random_bins = rng.integers(0, n_bins, size=n_heads)
    if explore.all():
        return random_bins
    return np.where(explore, random_bins, np.argmax(q(), axis=1))


def discretize_action(bin_index: int, n_bins: int = N_PRICE_BINS, max_change: float = 0.10) -> float:
    """Map a discrete bin onto a relative price change in [-max_change, +max_change]."""
    if not 0 <= bin_index < n_bins:
        raise ValueError(f"bin must be in 0..{n_bins - 1}, got {bin_index}")
    return -max_change + (2.0 * max_change / (n_bins - 1)) * bin_index


def smoothed(prev: list[float], raw: list[float]) -> list[float]:
    """Each product's change: an EMA of its `raw` change with its previous one."""
    keep = 1.0 - ACTION_SMOOTHING
    return [ACTION_SMOOTHING * p + keep * r for p, r in zip(prev, raw)]


def compute_reward(
    prev_revenue: float,
    revenue: float,
    price_change_rel: float,
    penalty_lambda: float,
    running_mean: float,
) -> float:
    """Normalized revenue change minus a quadratic price-instability penalty."""
    if running_mean < 0:
        raise ValueError("running_mean must be >= 0")
    return (revenue - prev_revenue) / max(1.0, running_mean) - penalty_lambda * price_change_rel**2


def encode_state(agent: PricingAgentBase, observation: MarketObservation) -> np.ndarray:
    """Fixed-layout state vector: 12 slots per product, portfolio order.

    Per product: [price vs cluster avg, margin ratio, lag demand ratio,
    2-week mean ratio, 4-week mean ratio, trend ratio, volatility ratio,
    week sin, week cos, holiday, own market share, last relative price change].
    The five demand entries come from `features.demand_features` of the
    product's last demands in the observation's log, with its cold-start
    substitutes until enough history exists. The price change is relative
    to the week before, or to the initial price in week 1 (0 at week zero,
    whose prices are the initial ones). The week's entries are looked up
    once, then each product is visited once; a non-finite entry raises
    ValueError.
    """
    week_sin, week_cos = seasonal_encoding(observation.week_number)
    holiday = 1.0 if observation.is_holiday else 0.0
    agent_id = agent.agent_id
    share = observation.market_share[agent_id]
    span = agent.slot_range(observation)
    weeks = observation.weeks
    if weeks >= 2:
        before = observation.log.price[weeks - 2, span].tolist()
    else:
        before = [spec.initial_price for spec in agent.product_specs]
    demands = recent(observation, observation.log.demand, span, DEMAND_WINDOW)
    slots: list[float] = []
    for spec, price, relative, prev, demand in zip(
        agent.product_specs, observation.price[span], observation.relative_price[span],
        before, demands,
    ):
        slots += (
            relative,
            (price - spec.unit_cost) / price,
            *demand_features(demand, spec.baseline_demand),
            week_sin,
            week_cos,
            holiday,
            share,
            (price - prev) / prev,
        )
    if not all(map(math.isfinite, slots)):
        raise ValueError(f"non-finite state entries for agent {agent_id}")
    return np.fromiter(slots, float, len(slots))


def state_dim(n_products: int) -> int:
    return STATE_SLOTS_PER_PRODUCT * n_products


class TeamMember(PricingAgentBase):
    """A learning agent: one member of its `learner`'s team, the
    `index`-th of its `member_ids`.

    propose_prices() encodes the state (`learner.encode`), lets the learner
    choose member `index`'s replay action and price changes
    (`learner.choose`) and returns each product's current price times
    (1 + change), in portfolio order. It keeps the state, the action and
    the agent's revenue in the observation it acted on as the week's
    pending step. feedback() encodes the next state, rewards the week just
    settled against that revenue and hands the transition to
    learner.contribute(agent_id, state, action, reward, next_state, done),
    which stores it and learns.
    """

    def __init__(
        self, agent_id: str, product_specs: list[ProductSpec], config: MarketConfig,
        learner: TeamLearner,
    ):
        super().__init__(agent_id, product_specs, config)
        self.learner = learner
        self.index = learner.member_ids.index(agent_id)

    def begin_episode(self, episode_index: int) -> None:
        super().begin_episode(episode_index)
        self._revenue_total = 0.0  # the episode's revenue samples, added in order
        self._revenue_count = 0
        self._prev_changes = [0.0] * len(self.product_specs)  # portfolio order
        self._encoded: tuple[MarketObservation | None, np.ndarray | None] = (None, None)
        # the week's (state, action, revenue in the observation acted on)
        self._pending: tuple[np.ndarray, np.ndarray, float] | None = None

    def propose_prices(self, observation: MarketObservation) -> list[float]:
        state = self._encode(observation)
        action, changes = self.learner.choose(
            self.index, state, self.episode_index, self._prev_changes
        )
        self._pending = (state, action, observation.agent_revenue[self.agent_id])
        self._prev_changes = changes
        # the environment enforces the market rules on these prices
        current = observation.price[self.slot_range(observation)]
        return [price * (1.0 + r) for price, r in zip(current, changes)]

    def feedback(self, observation: MarketObservation, done: bool) -> None:
        if self._pending is None:
            return
        state, action, prev_revenue = self._pending
        self._pending = None
        next_state = self._encode(observation)
        reward = self._reward_from(observation, prev_revenue, next_state)
        self.learner.contribute(self.agent_id, state, action, reward, next_state, done)

    def _encode(self, observation: MarketObservation) -> np.ndarray:
        """learner.encode(self, observation), computed once per observation.

        feedback() encodes next_state from the same observation object that
        the next propose_prices() receives. The state reads only that
        observation and its log's first `weeks` rows, which later weeks do
        not change, so the second call reuses the first's state.
        """
        seen, state = self._encoded
        if observation is not seen:
            state = self.learner.encode(self, observation)
            self._encoded = (observation, state)
        return state

    def _reward_from(
        self, observation: MarketObservation, prev_revenue: float, state: np.ndarray
    ) -> float:
        """`compute_reward` for the week just settled, whose encoded state is
        `state`, against `prev_revenue`, the agent's revenue the week before.

        The running mean is over the episode's revenues so far, opened by the
        week before the first; the instability term is the RMS of the
        products' last relative price changes, read from the state's last
        slot per product. Both sums add left to right.
        """
        revenue = observation.agent_revenue[self.agent_id]
        if not self._revenue_count:
            self._revenue_total = prev_revenue
            self._revenue_count = 1
        running_mean = self._revenue_total / self._revenue_count
        changes = state[STATE_SLOTS_PER_PRODUCT - 1 :: STATE_SLOTS_PER_PRODUCT].tolist()
        squares = 0.0
        for change in changes:
            squares += change * change
        change_rms = math.sqrt(squares / len(changes))
        reward = compute_reward(
            prev_revenue, revenue, change_rms, self.config.reward_penalty_lambda, running_mean
        )
        self._revenue_total += revenue
        self._revenue_count += 1
        return reward


class TeamLearner:
    """A team's learner: its members' generators, its replay ring of team
    steps, and the wait for every member's step.

    It knows its members by id, never as agents: the members own it, and
    with no reference back a finished run is freed by reference counting
    alone. Member i's generator is `derive_rng(seed, "agent", id)`; a
    subclass draws the member's nets from it in __init__, and the member
    explores with what is left. A subclass supplies:
    - `choose(i, state, episode, prev_changes)`: member i's replay action and
      its list of price changes, in portfolio order;
    - `encode(agent, observation)`: a call of its own module's `encode_state`,
      where callers look that name up;
    - `_row`, if its fields differ from `(actions, rewards, done)`;
    - `learn`: None while warming up, else the step's losses; each step adds
      one to `learn_calls`. Its TD target (`_td_target`) multiplies a
      terminal row's bootstrap by 1 - done = 0, as the replay ring's
      terminal rule requires (`nn.ReplayBuffer`).
    """

    def __init__(self, config: MarketConfig, hyper, member_ids: list[str]):
        if not member_ids:
            raise ShapeError("a team needs at least one member")
        self.config = config
        self.hyper = hyper
        self.member_ids = list(member_ids)
        self.rngs = [derive_rng(config.seed, "agent", aid) for aid in member_ids]
        pushes = config.episodes * config.weeks_per_episode  # a run's pushes, one per week
        self.buffer = ReplayBuffer(min(hyper.buffer_capacity, pushes), hyper.recency_decay)
        self._pending: dict[str, tuple] = {}
        self.learn_calls = 0
        self._work = Workspace()  # the learn step's batch arrays, refilled every step

    def contribute(self, agent_id, state, action, reward, next_state, done) -> None:
        """Collect one member's step; once every member's is in, push the team's row and learn."""
        if agent_id not in self.member_ids:
            raise ValueError(f"agent {agent_id!r} is not a member of this team")
        self._pending[agent_id] = (state, action, reward, next_state)
        if len(self._pending) < len(self.member_ids):
            return
        steps = (self._pending[aid] for aid in self.member_ids)
        states, actions, rewards, next_states = zip(*steps)
        self._pending = {}
        self.buffer.push(states, next_states, *self._row(actions, rewards, done))
        self.learn()

    def _row(self, actions, rewards, done) -> tuple:
        """The replay fields of one team step after its states, from the
        members' tuples in member order: every member's action and reward,
        and done."""
        return actions, rewards, done


class QTeamLearner(TeamLearner):
    """A team of Q-networks, `n_heads` heads of `n_bins` bins each: the team
    net `nets` (member i's drawn from its generator, as a single net built
    from that generator would be), member i's view of it `views[i]`, and its
    target. Members choose ε-greedy bins; a kind sets `smooths`: whether a
    price change is an EMA with the previous one or the bin's own. A
    subclass adds its optimizer and `learn`, which reads the nets through
    the helpers below.
    """

    smooths: bool

    def __init__(
        self, config: MarketConfig, hyper, member_ids: list[str], local_state_size: int,
        n_heads: int, n_bins: int = N_PRICE_BINS,
    ):
        super().__init__(config, hyper, member_ids)
        self.n_heads, self.n_bins = n_heads, n_bins
        self.nets = DenseNet(
            [local_state_size, *hyper.hidden, n_heads * n_bins],
            ["relu"] * len(hyper.hidden) + ["linear"],
            self.rngs,
        )
        self.views = [self.nets.member(i) for i in range(len(self.member_ids))]
        self.target_nets = self.nets.clone()
        # each (member, row, head)'s first bin in the team's flat output, set by the first step
        self._offsets: np.ndarray | None = None

    def choose(self, i: int, state: np.ndarray, episode: int, prev_changes: list[float]):
        """Member i's bins, ε-greedy over its view with its generator, and its changes."""
        hp, n_heads, n_bins, view = self.hyper, self.n_heads, self.n_bins, self.views[i]
        epsilon = exploration_rate(hp.epsilon_start, hp.epsilon_decay, hp.epsilon_floor, episode)
        bins = epsilon_greedy(
            lambda: view.forward(state).reshape(n_heads, n_bins),
            n_heads, n_bins, epsilon, self.rngs[i],
        )
        max_change = self.config.max_weekly_change
        raw = [discretize_action(b, n_bins, max_change) for b in bins.tolist()]
        return bins, smoothed(prev_changes, raw) if self.smooths else raw

    def _greedy_targets(self, next_states: np.ndarray) -> np.ndarray:
        """Each (member, row, head)'s best target-net value for (members, B,
        state) next states, in a kept array."""
        tq, _ = self.target_nets.forward_cached(next_states)
        n, b, _ = tq.shape
        return np.max(tq.reshape(n, b, self.n_heads, self.n_bins), axis=3,
                      out=self._work.get("greedy", (n, b, self.n_heads)))

    def _taken_q(self, states: np.ndarray, actions: np.ndarray):
        """The online pass over (members, B, state) states: each (member, row,
        head)'s Q-value at its bin in `actions` (members, B, heads), the pass's
        cache, and the bins' flat indices into its output."""
        out, cache = self.nets.forward_cached(states)
        if self._offsets is None or self._offsets.shape != actions.shape:
            self._offsets = np.arange(0, out.size, self.n_bins).reshape(actions.shape)
        work = self._work
        taken = np.add(self._offsets, actions, out=work.get("taken", actions.shape, np.intp))
        chosen = np.take(out.reshape(-1), taken, out=work.get("chosen", taken.shape), mode="clip")
        return chosen, cache, taken

    def _backward_taken(self, cache, taken: np.ndarray, grad) -> None:
        """The online pass's backward with `grad` at the taken bins and 0 elsewhere."""
        n, b, n_heads = taken.shape
        upstream = self._work.get("upstream", (n, b, n_heads * self.n_bins))
        upstream.fill(0.0)
        upstream.reshape(-1)[taken] = grad
        self.nets.backward(cache, upstream, inputs=False)
