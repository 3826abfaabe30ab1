"""Weekly-stepped market simulation: collect prices, draw demand, settle revenue.

All agents submit prices for the week before any demand is computed
(simultaneous-move). Agents and the market exchange prices in slot order
only: each agent submits one price per entry of its `product_specs`, in that
order, which are its contiguous slots. The step alone enforces the market
rules: every submission is capped at +/-max_weekly_change of last week's
price and then raised to the margin floor (`MarketConfig.allowed_prices`),
and each changed submission is counted in `clamp_events`.

A slot is one (agent, product) pair, in roster x portfolio order. Slot tables
hold what an episode cannot change: each slot's product spec, margin floor,
unit cost, cluster and demand shocks (one draw per (agent, product, episode)
stream, so roster order does not matter). They are built once per episode.
A week is a few passes over per-slot lists: one validates the submissions,
one applies the market rule, one demand-oracle call prices every slot, and
one settles them. The week's calendar terms come from a 52-week table.

`step` returns one `MarketObservation` per settled week, which the agents
read next, and writes the week into the episode's `EpisodeLog`, one row of
columns. Every observation carries the log and its count of settled
weeks, and the agents read their price and demand history from it: the log
is the only per-slot history, and its `slots` the only slot index.
`run_episode` returns the log: the episode's metrics and its `history.csv`
rows are computed from it, one episode at a time. Week zero, the initial
prices at baseline demand, is settled by the same helper
(`bootstrap_observation`) and is not logged.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping, Sequence

import numpy as np

from .demand import DemandOracle, DemandQuery
from .features import seasonal_encoding
from .market import (
    EpisodeLog,
    MarketConfig,
    MarketObservation,
    ProductSpec,
    derive_rng,
    holiday_flag,
    left_sum,
)

HISTORY_COLUMNS = (
    "episode",
    "week",
    "agent_id",
    "product_id",
    "price",
    "demand",
    "revenue",
    "profit",
    "market_share",
)
HISTORY_HEADER = (",".join(HISTORY_COLUMNS) + "\n").encode()


class ProtocolError(RuntimeError):
    """An agent violated the step contract (no list of one price per product,
    or a non-numeric or non-finite price), or the demand oracle returned
    other than one demand per slot."""


class PricingAgentBase:
    """An agent pricing its `product_specs`, which are its contiguous slots
    in that order. Subclasses implement propose_prices(), which returns one
    price per product in that order. The agent keeps no history:
    `slot_range` finds its slots in the episode log an observation carries,
    and `recent` reads them from the log's columns."""

    def __init__(self, agent_id: str, product_specs: list[ProductSpec], config: MarketConfig):
        self.agent_id = agent_id
        self.product_specs = list(product_specs)
        self.config = config
        self.episode_index = 0
        self.begin_episode(0)

    def begin_episode(self, episode_index: int) -> None:
        """Start episode `episode_index`; learned parameters (if any) persist."""
        self.episode_index = episode_index

    def slot_range(self, observation: MarketObservation) -> slice:
        """This agent's slots in `observation`'s per-slot lists and log
        columns: contiguous, in `product_specs` order."""
        start = observation.log.slots[(self.agent_id, self.product_specs[0].product_id)]
        return slice(start, start + len(self.product_specs))

    def propose_prices(self, observation: MarketObservation) -> Sequence[float]:
        """One price per entry of `product_specs`, in that order."""
        raise NotImplementedError

    def feedback(self, observation: MarketObservation, done: bool) -> None:
        """Post-step hook, given each settled week's observation once (`done`
        on the episode's last week); learning agents store transitions and
        train here."""


def recent(
    observation: MarketObservation, column: np.ndarray, span: slice, weeks: int
) -> list[list[float]]:
    """Each slot of `span`'s last `weeks` settled entries of `column`, a
    `(weeks, slots)` column of `observation.log`, oldest first (fewer early
    in the episode)."""
    settled = observation.weeks
    return column[max(0, settled - weeks):settled, span].T.tolist()


# Each calendar week's (holiday flag, seasonal sine); `step` wraps week 52 to 1.
_CALENDAR = {week: (holiday_flag(week), seasonal_encoding(week)[0]) for week in range(1, 53)}


class MarketEnvironment:
    """One episode's market. Construct fresh per episode.

    The slot tables are built here once: per slot, its product spec, margin
    floor, unit cost, cluster and the episode's demand shocks, one
    `standard_normal(weeks_per_episode)` draw per (agent, product, episode)
    stream; per agent, its span of slots.
    """

    def __init__(
        self,
        config: MarketConfig,
        agents: list[PricingAgentBase],
        demand_model: DemandOracle,
        episode_index: int = 0,
    ):
        self.config = config
        self.agents = list(agents)
        self.demand_model = demand_model
        self.episode_index = episode_index
        self.week_index = 0  # weeks settled so far
        self.week_number = 1  # the calendar week agents price next, 1..52
        self.clamp_events = 0
        pairs = [(a.agent_id, spec) for a in self.agents for spec in a.product_specs]
        self.slots = {(aid, spec.product_id): i for i, (aid, spec) in enumerate(pairs)}
        self._specs = [spec for _, spec in pairs]
        self._floors = [config.price_floor(spec) for spec in self._specs]
        self._prices = [spec.initial_price for spec in self._specs]  # last week's
        self._agent_spans = []
        start = 0
        for agent in self.agents:
            stop = start + len(agent.product_specs)
            self._agent_spans.append((agent.agent_id, start, stop))
            start = stop
        self.log = EpisodeLog(
            config.weeks_per_episode, self.slots, [a.agent_id for a in self.agents],
            [spec.unit_cost for spec in self._specs],
        )
        cluster_ids = [spec.cluster_id for spec in self._specs]
        clusters = list(dict.fromkeys(cluster_ids))
        self._slot_cluster = [clusters.index(c) for c in cluster_ids]
        self._cluster_members = [
            [i for i, k in enumerate(self._slot_cluster) if k == c] for c in range(len(clusters))
        ]
        self.competitor_slots = tuple(
            tuple(j for j in self._cluster_members[c] if pairs[j][0] != aid)
            for (aid, _), c in zip(pairs, self._slot_cluster)
        )
        weeks = config.weeks_per_episode
        self._shocks = np.array([
            derive_rng(config.seed, "demand", aid, pid, episode_index).standard_normal(weeks)
            for aid, pid in self.slots
        ]).T.tolist()
        self._last_demand = [spec.baseline_demand for spec in self._specs]

    # -- observation plumbing ---------------------------------------------

    def _relative_prices(self, prices: list[float]) -> list[float]:
        """Each slot's price over its cluster mean price, its own price included."""
        fsum, price_at = math.fsum, prices.__getitem__
        means = [fsum(map(price_at, members)) / len(members) for members in self._cluster_members]
        return list(map(operator.truediv, prices, map(means.__getitem__, self._slot_cluster)))

    def _settle(
        self, prices: list[float], relative: list[float], demands: list[float]
    ) -> MarketObservation:
        """The observation of a week sold at `prices` and `demands`: each
        agent's revenue, its slots' `price * demand` summed left to right in
        portfolio order, and shares of their `fsum` (equal shares when it is
        not positive). Week `week_index` is also written into its log row;
        week zero has none."""
        revenues = list(map(operator.mul, prices, demands))
        agent_revenue = {
            agent_id: left_sum(revenues[start:stop]) for agent_id, start, stop in self._agent_spans
        }
        total = math.fsum(agent_revenue.values())
        if total <= 0:
            shares = dict.fromkeys(agent_revenue, 1.0 / len(agent_revenue))
        else:
            shares = {aid: rev / total for aid, rev in agent_revenue.items()}
        row = self.week_index - 1
        if row >= 0:
            log = self.log
            log.price[row] = prices
            log.demand[row] = demands
            log.revenue[row] = list(agent_revenue.values())
            log.share[row] = list(shares.values())
            log.zero_revenue[row] = total <= 0
        week = self.week_number
        return MarketObservation(
            week_number=week, is_holiday=_CALENDAR[week][0],
            competitor_slots=self.competitor_slots, log=self.log, weeks=self.week_index,
            price=prices, relative_price=relative,
            agent_revenue=agent_revenue, market_share=shares,
        )

    def bootstrap_observation(self) -> MarketObservation:
        """Week zero: the current (initial) prices sold at baseline demand."""
        prices = self._prices
        return self._settle(prices, self._relative_prices(prices), self._last_demand)

    # -- stepping -----------------------------------------------------------

    def _submissions(self, submitted_prices: Mapping[str, Sequence[float]]) -> list[float]:
        """Every slot's submitted price as a float, in slot order: each
        agent's sequence holds one price per product, in portfolio order.
        An agent without such a sequence (none, a number, a dict or the
        wrong length) is a ProtocolError naming the agent; a price that is
        not a finite number is one naming the agent and the product."""
        isfinite = math.isfinite
        submitted = []
        for agent_id, start, stop in self._agent_spans:
            agent_prices = submitted_prices.get(agent_id)
            try:
                count = len(agent_prices)
            except TypeError:  # None or a number
                count = None
            if count != stop - start or isinstance(agent_prices, dict):
                raise ProtocolError(
                    f"agent {agent_id} submitted {agent_prices!r}, not a sequence of "
                    f"{stop - start} prices in portfolio order"
                )
            for value in agent_prices:  # the value's slot is len(submitted)
                try:
                    price = float(value)
                except (TypeError, ValueError) as exc:
                    raise ProtocolError(
                        f"agent {agent_id} submitted non-numeric price {value!r} "
                        f"for product {self._specs[len(submitted)].product_id}"
                    ) from exc
                if not isfinite(price):
                    raise ProtocolError(
                        f"agent {agent_id} submitted non-finite price {price} "
                        f"for product {self._specs[len(submitted)].product_id}"
                    )
                submitted.append(price)
        return submitted

    def step(self, submitted_prices: Mapping[str, Sequence[float]]) -> MarketObservation:
        """Settle one week at the submitted prices (each agent's, in its
        portfolio order), after the market rule, write it into the log and
        return its observation."""
        t = self.week_index
        if t >= self.config.weeks_per_episode:
            raise ProtocolError(f"the episode's {self.config.weeks_per_episode} weeks are over")
        week = self.week_number
        is_holiday, week_sin = _CALENDAR[week]

        # validate every submission, then apply the market rule to each
        submitted = self._submissions(submitted_prices)
        prices = self.config.allowed_prices(self._prices, submitted, self._floors)
        self.clamp_events += sum(map(operator.ne, prices, submitted))

        # one demand call for every slot, then settle each agent in portfolio order
        relative = self._relative_prices(prices)
        demands = self.demand_model.sample_demand(DemandQuery(
            specs=self._specs, prices=prices, relative_prices=relative,
            lag1_demands=self._last_demand, shocks=self._shocks[t],
            week_sin=week_sin, holiday=is_holiday,
        ))
        if len(demands) != len(prices):
            raise ProtocolError(
                f"the demand oracle returned {len(demands)} demands for {len(prices)} slots"
            )
        self._prices = prices
        self._last_demand = demands
        self.week_index = t + 1
        self.week_number = week % 52 + 1
        return self._settle(prices, relative, demands)


def run_episode(
    config: MarketConfig,
    agents: list[PricingAgentBase],
    demand_model: DemandOracle,
    episode_index: int = 0,
) -> EpisodeLog:
    """Run exactly weeks_per_episode steps, driving agent act/feedback hooks;
    return the episode's log."""
    for agent in agents:
        agent.begin_episode(episode_index)
    env = MarketEnvironment(config, agents, demand_model, episode_index)
    observation = env.bootstrap_observation()
    for week in range(1, config.weeks_per_episode + 1):
        submitted = {a.agent_id: a.propose_prices(observation) for a in env.agents}
        observation = env.step(submitted)
        done = week == config.weeks_per_episode
        for agent in env.agents:
            agent.feedback(observation, done)
    return env.log


# `'%.6f' % x` is computed in vector form for |x| < FIXED6_LIMIT, that is
# |x|·10⁶ < 2⁵², where every half-integer is a double; any other value (NaN
# and inf too) is formatted one by one.
FIXED6_LIMIT = 2.0**52 / 1e6


def _digits(v: np.ndarray, out: np.ndarray) -> None:
    """Write the last `len(out)` decimal digits of the non-negative ints `v`
    into `out` (shape `(count, *v.shape)`), most significant first, as ASCII."""
    for j in range(len(out) - 1, -1, -1):
        rest = v // 10
        out[j] = v - rest * 10
        v = rest
    out += ord("0")


def fixed6_text(values: np.ndarray) -> np.ndarray:
    """`'%.6f' % v` of every float in `values`, as a uint8 array of shape
    `(width, *values.shape)`: byte j of each value's text, padded with NULs
    (one width for all; drop the NULs to read the text).

    The text is exact. hi = fl(|v|·10⁶) is correctly rounded, so below 2⁵²,
    where every half-integer is a double, rint(hi) rounds |v|·10⁶ to its
    nearest integer unless hi is itself a half-integer. Such a tie hides
    which side of it the exact product lies on, so it is formatted one by
    one, as are the values beyond the limit. The sign comes from `signbit`,
    so -0.0 and negatives that round to zero keep their '-'.
    """
    values = np.asarray(values, dtype=np.float64)
    a = np.abs(values)
    fast = a < FIXED6_LIMIT
    if not fast.all():
        a[~fast] = 0.0
    hi = a * 1e6
    q = np.rint(hi)
    fast &= np.abs(np.subtract(hi, q, out=hi), out=hi) != 0.5
    slow = [] if fast.all() else [tuple(i) for i in np.argwhere(~fast)]
    int_part = np.floor(q / 1e6)
    frac = np.subtract(q, int_part * 1e6, out=q).astype(np.int32)
    top = int(int_part.max(initial=0.0))
    int_part = int_part.astype(np.int32 if top < 2**31 else np.int64)
    n_int = len(str(top))
    fallback = [(i, b"%.6f" % values[i]) for i in slow]
    width = max([n_int + 8] + [len(text) for _, text in fallback])

    text = np.zeros((width, *values.shape), dtype=np.uint8)
    np.signbit(values, out=text[0], casting="unsafe")
    text[0] *= ord("-")
    point = width - 7
    digits = text[point - n_int:point]
    _digits(int_part, digits)
    for j in range(n_int - 1):  # leading zeros stay NUL
        digits[j] *= int_part >= 10 ** (n_int - 1 - j)
    text[point] = ord(".")
    _digits(frac, text[point + 1:])
    for i, value_text in fallback:
        cell = text[(slice(None), *i)]
        cell[:] = 0
        cell[:len(value_text)] = np.frombuffer(value_text, dtype=np.uint8)
    return text


def _text_rows(strings: list[bytes]) -> np.ndarray:
    """`(width, len(strings))` uint8: each string down its column, NUL-padded."""
    return np.array(strings, dtype=bytes).view(np.uint8).reshape(len(strings), -1).T


def _rows_bytes(ep_idx: int, log: EpisodeLog) -> bytes:
    """The history rows of one episode's log: one row per slot and week, in
    slot order within each week. Each slot's revenue and profit are
    `price * demand` and `(price - unit_cost) * demand`, rounded as the
    same float operations in Python round them.

    The rows are laid out in a `(bytes per row, rows)` uint8 buffer: each
    week's `episode,week,`, each slot's `agent_id,product_id,`, then each
    float column's `fixed6_text` and its separator, every field NUL-padded
    to its widest entry. One transpose makes the row bytes, and dropping the
    NULs leaves the CSV text.
    """
    price, demand = log.price, log.demand
    weeks, n_slots = price.shape
    with np.errstate(over="ignore"):  # an overflow is inf, as in Python
        revenue, profit = price * demand, (price - log.unit_cost) * demand
    values = np.stack([price, demand, revenue, profit, log.share[:, log.owner]]).reshape(5, -1)
    fields = fixed6_text(values).transpose(1, 0, 2)  # (5, width, rows)

    heads = _text_rows([b"%d,%d," % (ep_idx, week) for week in range(1, weeks + 1)])
    prefixes = _text_rows([f"{aid},{pid},".encode() for aid, pid in log.slots])
    start = len(heads) + len(prefixes)
    buffer = np.empty((start + 5 * (fields.shape[1] + 1), weeks, n_slots), dtype=np.uint8)
    buffer[:len(heads)] = heads[:, :, None]
    buffer[len(heads):start] = prefixes[:, None, :]
    columns = buffer[start:].reshape(5, -1, values.shape[1])
    columns[:, :-1] = fields
    columns[:, -1] = ord(",")
    columns[4, -1] = ord("\n")
    return buffer.reshape(len(buffer), -1).T.tobytes().translate(None, b"\0")


def write_history_csv(fh, ep_idx: int, log: EpisodeLog) -> None:
    """Append episode `ep_idx`'s history rows to the binary file `fh`: one row
    per slot and week, floats as `'%.6f'`. A history file is `HISTORY_HEADER`
    and then each episode's rows, in order."""
    fh.write(_rows_bytes(ep_idx, log))
