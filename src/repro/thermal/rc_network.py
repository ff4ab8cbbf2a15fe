"""Ground-truth continuous-time thermal RC network.

This is the "physical silicon" of the simulation: a lumped thermal network
``Ct * dT/dt = -Gt * T(t) + P(t)`` (Eq. 4.3 of the paper) with an ambient
boundary node.  The DTPM controller never reads this model; it identifies
its own reduced-order discrete model from sensor data (Section 4.2.1), so
the reproduction inherits the same model-mismatch structure as the paper.

The network is integrated exactly over each substep using the matrix
exponential of the augmented system (zero-order hold on power), so the
simulation is unconditionally stable regardless of node time constants.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np
from scipy.linalg import expm

from repro.errors import ConfigurationError, SimulationError

#: Capacity of the per-network ``(dt, gain) -> (Ad, Bd)`` discretisation
#: cache.  Temperature-dependent ``nonlinear_factors`` quantise to a 0.05
#: grid, but long runs sweeping many fan states and operating points can
#: still touch an unbounded key set, so the cache evicts least-recently
#: used entries beyond this bound (an ``expm`` recompute on a miss is
#: cheap relative to unbounded memory growth).
DISC_CACHE_SIZE = 256

@dataclass(frozen=True)
class ThermalNode:
    """One lumped thermal mass.

    Parameters
    ----------
    name:
        Unique node identifier (e.g. ``"big0"``, ``"case"``).
    capacitance_j_per_k:
        Thermal capacitance of the lump.
    g_ambient_w_per_k:
        Direct conductance from this node to the ambient boundary.
    cooled:
        Whether the fan multiplies this node's ambient conductance
        (true only for the case/heat-sink node on this platform).
    """

    name: str
    capacitance_j_per_k: float
    g_ambient_w_per_k: float = 0.0
    cooled: bool = False

    def __post_init__(self) -> None:
        if self.capacitance_j_per_k <= 0:
            raise ConfigurationError(
                "node %r: capacitance must be positive" % self.name
            )
        if self.g_ambient_w_per_k < 0:
            raise ConfigurationError(
                "node %r: ambient conductance must be >= 0" % self.name
            )


class ThermalRCNetwork:
    """Lumped thermal RC network with exact zero-order-hold integration."""

    def __init__(
        self,
        nodes: Sequence[ThermalNode],
        couplings: Sequence[Tuple[str, str, float]],
        ambient_k: float,
        nonlinear_cooling_coeff: float = 0.0,
    ) -> None:
        if not nodes:
            raise ConfigurationError("network needs at least one node")
        names = [n.name for n in nodes]
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate node names: %r" % names)

        self.nodes: Tuple[ThermalNode, ...] = tuple(nodes)
        self._index: Dict[str, int] = {n.name: i for i, n in enumerate(nodes)}
        self.ambient_k = float(ambient_k)
        n = len(nodes)

        # Conductance (Laplacian-like) matrix for node-node couplings.
        self._g_coupling = np.zeros((n, n))
        for a, b, g in couplings:
            if g <= 0:
                raise ConfigurationError(
                    "coupling %s-%s must have positive conductance" % (a, b)
                )
            ia, ib = self.index(a), self.index(b)
            if ia == ib:
                raise ConfigurationError("self-coupling on node %r" % a)
            self._g_coupling[ia, ia] += g
            self._g_coupling[ib, ib] += g
            self._g_coupling[ia, ib] -= g
            self._g_coupling[ib, ia] -= g

        self._g_ambient = np.array([n_.g_ambient_w_per_k for n_ in nodes])
        self._cooled_mask = np.array([n_.cooled for n_ in nodes], dtype=bool)
        self._capacitance = np.array([n_.capacitance_j_per_k for n_ in nodes])
        if not np.any(self._g_ambient > 0):
            raise ConfigurationError(
                "at least one node must couple to ambient, or heat never leaves"
            )

        self._temps_k = np.full(n, self.ambient_k)
        self._cooling_gain = 1.0
        # Natural convection + radiation improve as the case runs hotter;
        # this first-order correction multiplies the cooled nodes' ambient
        # conductance by (1 + coeff * (T_case - T_amb)), quantised so the
        # discretisation cache stays bounded.
        if nonlinear_cooling_coeff < 0:
            raise ConfigurationError("nonlinear cooling coeff must be >= 0")
        self.nonlinear_cooling_coeff = nonlinear_cooling_coeff
        # (dt, effective_gain) -> (Ad, Bd) discretisation LRU cache,
        # bounded at DISC_CACHE_SIZE entries (see discretise)
        self._disc_cache: "OrderedDict[Tuple[float, float], Tuple[np.ndarray, np.ndarray]]" = OrderedDict()

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of thermal nodes."""
        return len(self.nodes)

    def index(self, name: str) -> int:
        """Index of a node by name."""
        try:
            return self._index[name]
        except KeyError:
            raise ConfigurationError("unknown thermal node %r" % name) from None

    @property
    def temperatures_k(self) -> np.ndarray:
        """Copy of all node temperatures (K)."""
        return self._temps_k.copy()

    def physics_equal(self, other: "ThermalRCNetwork") -> bool:
        """Whether two networks share identical physical parameters.

        State (temperatures, cooling gain) is excluded -- this is the
        compatibility test the batched plant uses to decide that one
        discretisation cache can serve every lane.
        """
        return (
            self.ambient_k == other.ambient_k
            and self.nonlinear_cooling_coeff == other.nonlinear_cooling_coeff
            and tuple(n.name for n in self.nodes)
            == tuple(n.name for n in other.nodes)
            and np.array_equal(self._g_coupling, other._g_coupling)
            and np.array_equal(self._g_ambient, other._g_ambient)
            and np.array_equal(self._capacitance, other._capacitance)
            and np.array_equal(self._cooled_mask, other._cooled_mask)
        )

    def temperature_k(self, name: str) -> float:
        """Temperature of one node (K)."""
        return float(self._temps_k[self.index(name)])

    @property
    def cooling_gain(self) -> float:
        """Current multiplier on cooled nodes' ambient conductance."""
        return self._cooling_gain

    def set_cooling_gain(self, gain: float) -> None:
        """Set the fan-driven multiplier on cooled nodes' conductance."""
        if gain <= 0:
            raise ConfigurationError("cooling gain must be positive")
        self._cooling_gain = float(gain)

    def set_temperatures_k(self, temps_k: Sequence[float]) -> None:
        """Force all node temperatures (warm-start / test setup)."""
        temps = np.asarray(temps_k, dtype=float)
        if temps.shape != self._temps_k.shape:
            raise ConfigurationError(
                "expected %d temperatures" % self.num_nodes
            )
        self._temps_k = temps.copy()

    def set_uniform_temperature_k(self, temp_k: float) -> None:
        """Set every node to the same temperature."""
        self._temps_k = np.full(self.num_nodes, float(temp_k))

    # ------------------------------------------------------------------
    # dynamics
    # ------------------------------------------------------------------
    def _nonlinear_factor(self) -> float:
        """Quantised hot-case cooling improvement factor (>= 1)."""
        return float(self.nonlinear_factors(self._temps_k[np.newaxis, :])[0])

    def nonlinear_factors(self, temps_k: np.ndarray) -> np.ndarray:
        """Per-lane quantised cooling factors for a ``(B, N)`` temp batch.

        Every operation is elementwise over the batch axis (the only
        reduction runs over the fixed cooled-node axis), so lane ``b`` of a
        batch gets exactly the value a standalone ``(1, N)`` call would.
        """
        batch = temps_k.shape[0]
        if self.nonlinear_cooling_coeff <= 0 or not np.any(self._cooled_mask):
            return np.ones(batch)
        delta = (
            np.mean(temps_k[:, self._cooled_mask], axis=1) - self.ambient_k
        )
        factor = 1.0 + self.nonlinear_cooling_coeff * np.maximum(0.0, delta)
        return np.round(factor / 0.05) * 0.05

    def _effective_g(self, gain: float) -> np.ndarray:
        """Full conductance matrix including (fan-scaled) ambient legs."""
        g_amb = self._g_ambient.copy()
        g_amb[self._cooled_mask] *= gain
        return self._g_coupling + np.diag(g_amb), g_amb

    def _discretise(self, dt_s: float, gain: float) -> Tuple[np.ndarray, np.ndarray]:
        """Exact ZOH discretisation of the network for step ``dt_s``.

        Memoised in a per-instance LRU (``DISC_CACHE_SIZE`` entries; the
        quantised effective gains of a steady run touch a handful of
        keys).  Matrices handed back are shared and must not be mutated
        (``discretise_stack`` copies via its gather).
        """
        key = (round(dt_s, 9), round(gain, 9))
        cached = self._disc_cache.get(key)
        if cached is not None:
            self._disc_cache.move_to_end(key)
            return cached

        g_full, g_amb = self._effective_g(gain)
        c_inv = 1.0 / self._capacitance
        m = -(c_inv[:, None] * g_full)  # continuous A
        # inputs: [P (n), Tamb (1)]
        n = self.num_nodes
        b = np.zeros((n, n + 1))
        b[:, :n] = np.diag(c_inv)
        b[:, n] = c_inv * g_amb
        # augmented exact ZOH
        aug = np.zeros((2 * n + 1, 2 * n + 1))
        aug[:n, :n] = m
        aug[:n, n:] = b
        phi = expm(aug * dt_s)
        ad = phi[:n, :n]
        bd = phi[:n, n:]
        self._disc_cache[key] = (ad, bd)
        if len(self._disc_cache) > DISC_CACHE_SIZE:
            self._disc_cache.popitem(last=False)
        return ad, bd

    def discretise_stack(
        self, dt_s: float, gains: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-lane stacked ``(Ad, Bd)`` for a ``(B,)`` effective-gain vector.

        Lanes sharing a gain share one cached discretisation; the result
        gathers the unique matrices back to per-lane ``(B, N, N)`` /
        ``(B, N, N+1)`` stacks so a whole batch advances in one
        ``einsum`` regardless of how many distinct gains it spans.  The
        gather is a view-free fancy index, so mutating the result never
        corrupts the cache.
        """
        if dt_s <= 0:
            raise SimulationError("dt must be positive")
        n = self.num_nodes
        uniq, inv = np.unique(np.asarray(gains, dtype=float), return_inverse=True)
        ads = np.empty((uniq.shape[0], n, n))
        bds = np.empty((uniq.shape[0], n, n + 1))
        for g_i, gain in enumerate(uniq):
            ads[g_i], bds[g_i] = self._discretise(dt_s, float(gain))
        return ads[inv.reshape(-1)], bds[inv.reshape(-1)]

    def step(self, power_w: Sequence[float], dt_s: float) -> np.ndarray:
        """Advance the network by ``dt_s`` under constant node powers (W).

        This is the B=1 view of :meth:`step_batch`, so a standalone
        network and one lane of a batched plant integrate through the
        same code path (and therefore bit-identically).  No plant calls
        it: it stays as the scalar side of a parity-manifest pair
        (RPR031) and as the integrator of the RC oracles in
        ``tests/test_rc_network.py``.
        """
        p = np.asarray(power_w, dtype=float)
        if p.shape != (self.num_nodes,):
            raise SimulationError(
                "expected %d node powers, got shape %s" % (self.num_nodes, p.shape)
            )
        self._temps_k = self.step_batch(
            self._temps_k[np.newaxis, :],
            p[np.newaxis, :],
            dt_s,
            np.array([self._cooling_gain]),
        )[0]
        return self._temps_k.copy()

    def step_batch(
        self,
        temps_k: np.ndarray,
        power_w: np.ndarray,
        dt_s: float,
        cooling_gains: np.ndarray,
    ) -> np.ndarray:
        """Advance ``B`` independent thermal states by one substep.

        Parameters
        ----------
        temps_k:
            ``(B, N)`` node temperatures, one row per lane.  Not mutated;
            the instance's own state is untouched (lanes own their state).
        power_w:
            ``(B, N)`` node powers.
        cooling_gains:
            ``(B,)`` fan-driven multipliers on the cooled nodes' ambient
            conductance (each lane's fan runs its own controller).

        Lanes sharing an effective conductance share one cached
        ``(Ad, Bd)`` pair (gathered to a per-lane stack by
        :meth:`discretise_stack`); the update is one ``einsum`` over the
        fixed node axis, so each lane's result is independent of which
        other lanes ride in the batch -- the property the batch/serial
        byte-identity contract rests on.
        """
        if dt_s <= 0:
            raise SimulationError("dt must be positive")
        temps_k = np.asarray(temps_k, dtype=float)
        power_w = np.asarray(power_w, dtype=float)
        batch = temps_k.shape[0]
        if temps_k.shape != (batch, self.num_nodes) or power_w.shape != (
            batch,
            self.num_nodes,
        ):
            raise SimulationError(
                "expected (B, %d) temps and powers, got %s and %s"
                % (self.num_nodes, temps_k.shape, power_w.shape)
            )
        gains = np.asarray(cooling_gains, dtype=float) * self.nonlinear_factors(
            temps_k
        )
        u = np.concatenate(
            [power_w, np.full((batch, 1), self.ambient_k)], axis=1
        )
        # one gathered-stack einsum instead of a per-unique-gain Python
        # loop; bit-identical per lane to the grouped "ij,bj->bi" form
        # (einsum accumulates over the node axis in the same order)
        ad, bd = self.discretise_stack(dt_s, gains)
        return np.einsum("bij,bj->bi", ad, temps_k) + np.einsum(
            "bij,bj->bi", bd, u
        )

    def steady_state_k(self, power_w: Sequence[float]) -> np.ndarray:
        """Steady-state temperatures for constant node powers (K).

        With nonlinear cooling enabled the effective conductance depends on
        the (unknown) steady case temperature, so the solve iterates to a
        fixed point; convergence is fast because the correction is mild.
        """
        p = np.asarray(power_w, dtype=float)
        if p.shape != (self.num_nodes,):
            raise SimulationError("expected %d node powers" % self.num_nodes)
        factor = 1.0
        temps = np.full(self.num_nodes, self.ambient_k)
        for _ in range(50):
            g_full, g_amb = self._effective_g(self._cooling_gain * factor)
            rhs = p + g_amb * self.ambient_k
            temps = np.linalg.solve(g_full, rhs)
            if self.nonlinear_cooling_coeff <= 0 or not np.any(self._cooled_mask):
                break
            delta = float(np.mean(temps[self._cooled_mask])) - self.ambient_k
            new_factor = 1.0 + self.nonlinear_cooling_coeff * max(0.0, delta)
            if abs(new_factor - factor) < 1e-6:
                break
            factor = 0.5 * factor + 0.5 * new_factor
        return temps

    def dominant_time_constants_s(self) -> np.ndarray:
        """Sorted (descending) time constants at the current operating point."""
        g_full, _ = self._effective_g(
            self._cooling_gain * self._nonlinear_factor()
        )
        m = -np.diag(1.0 / self._capacitance) @ g_full
        eigvals = np.linalg.eigvals(m)
        taus = -1.0 / np.real(eigvals)
        return np.sort(taus)[::-1]


def node_power_vector(
    network: ThermalRCNetwork, powers: Dict[str, float]
) -> np.ndarray:
    """Build a node-power vector from a name->watts mapping.

    Nodes not mentioned get zero power; unknown names raise.
    """
    vec = np.zeros(network.num_nodes)
    for name, watts in powers.items():
        vec[network.index(name)] = watts
    return vec
