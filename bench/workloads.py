"""Seeded job lists for the four benchmark workloads.

A workload is a list of slots. Each slot holds one candidate group per pass
(``MAX_PASSES`` groups), every candidate a CLI argument vector. A run shuffles
the group order by seed, gives pass ``p`` the ``p``-th group of every slot,
and draws ``take`` candidates from it by seed. Candidates are distinct across
all groups of all slots, so no two jobs of a run share their inputs (the one
exception is ``reproduce-paper``, which takes no parameter but ``--M``).

Sizes (M, k_trunc, n_max, L) are fixed per slot; the seed only picks the
parameters (alpha, weight value, pattern seed, offsets). Parameters that set
the amount of work, such as alpha for the weaving search or the adversary,
come from narrow bands or balanced sets, so every pass costs about the same.

Every candidate has a committed reference, written by ``make_references.py``.
"""

import cmath
import hashlib
import random
from dataclasses import dataclass

MAX_PASSES = 20
WORKLOADS = ("certify", "frames", "adversary", "desk")

ADVERSARY_ALPHAS = (1.8, 2.0, 2.1, 2.5)

# fixed accuracy-reference cases: (alpha, N, j, K, M)
ACCURACY_CASES = ((2.0, 1, 0, 0, 40), (1.05, 2, 0, 0, 40), (2.0, 5, 4, 3, 20))


def reference_key(argv) -> str:
    """The argument vector as one string; long ones (explicit point lists) hashed."""
    text = " ".join(argv)
    if len(text) <= 160:
        return text
    return f"{text[:80]} sha256:{hashlib.sha256(text.encode()).hexdigest()[:32]}"


@dataclass(frozen=True)
class Job:
    """One CLI invocation. ``argv`` carries no output path; ``key`` names its reference."""

    id: str
    slot: str
    argv: tuple

    @property
    def key(self) -> str:
        return reference_key(self.argv)


@dataclass(frozen=True)
class Slot:
    name: str
    groups: tuple  # MAX_PASSES tuples of argv tuples
    take: int


def _f(value: float) -> str:
    return repr(float(value))


def _band(low: float, high: float, index: int, count: int) -> str:
    """The index-th of count evenly spaced values on [low, high]."""
    return _f(round(low + (high - low) * index / (count - 1), 7))


def _near(value: float, index: int) -> str:
    # within 1e-10 of `value`: a distinct input that does the same work
    return _f(value + index * 2.0**-40)


def _pow2(exponent: int) -> str:
    return _f(2.0**exponent)


def _groups(take: int, make) -> tuple:
    return tuple(tuple(make(g, i) for i in range(take)) for g in range(MAX_PASSES))


def _spiral(rho: float, theta: float, count: int = 400) -> str:
    points = []
    for k in range(1, count + 1):
        z = (1.0 - 0.5 * rho**k) * cmath.exp(1j * theta * k)
        points.append(f"{z.real!r}{z.imag:+.17g}j")
    return ",".join(points)


def _certify_slots():
    # alphas spread over [1.05, 1.12]; each group spans the whole band
    count = 8 * MAX_PASSES

    def geo(g, position, k_trunc):
        alpha = _band(1.05, 1.12, position * MAX_PASSES + g, count)
        return ("check-carleson", "--alpha", alpha, "--n-max", "60", "--k-trunc", str(k_trunc))

    def spiral(g, i):
        points = _spiral(round(0.985 + 0.0004 * g, 6), round(0.5 + 0.05 * g, 6))
        return ("check-carleson", "--values", points, "--n-max", "60", "--k-trunc", "400")

    return [
        Slot("geometric-k5000", _groups(2, lambda g, i: geo(g, i, 5000)), 2),
        Slot("geometric-k2000", _groups(2, lambda g, i: geo(g, 2 + i, 2000)), 2),
        Slot("power-2", _groups(1, lambda g, i: geo(g, 4, 2000) + ("--power", "2")), 1),
        Slot("power-3", _groups(1, lambda g, i: geo(g, 5, 2000) + ("--power", "3")), 1),
        Slot(
            "squared-two-point",
            _groups(1, lambda g, i: geo(g, 6, 2000) + ("--two-point-q", _band(0.1, 0.85, g, MAX_PASSES),
                                                        "--power", "2")),
            1,
        ),
        Slot("drop-prefix", _groups(1, lambda g, i: geo(g, 7, 2000) + ("--drop-prefix", str(2 + g % 8))), 1),
        Slot("complex-spiral", _groups(1, spiral), 1),
    ]


# one power-of-two weight per pass: S scales by exactly |w|^2
_PASS_WEIGHTS = tuple(_pow2((k + 1) // 2 * (-1) ** (k + 1)) for k in range(MAX_PASSES))


def _frames_slots():
    def bounds800(g, i):
        stride, offset = ((1, 0), (2, 1))[i]
        return ("bounds", "--alpha", _band(1.3, 1.9, 2 * g + i, 2 * MAX_PASSES),
                "--weight-value", _PASS_WEIGHTS[(g + i) % MAX_PASSES],
                "--N", str(stride), "--j", str(offset), "--M", "800")

    def sweep(g, i):
        return ("subsample-sweep", "--alpha", _band(1.5, 2.5, g, MAX_PASSES), "--weight-value", _PASS_WEIGHTS[g],
                "--N", "1,2,3,5", "--K", "0,3", "--M", "400")

    # weaving J grows quickly as alpha falls: a band 0.004 wide keeps the work
    def weave(pattern, first):
        return lambda g, i: (
            "weave", "--alpha", _f(round(first + 0.00025 * g, 7)), "--weight-value", _PASS_WEIGHTS[g],
            "--N", "2", "--pattern", pattern(g), "--M", "200",
        )

    slots = [
        Slot("bounds-M800", _groups(2, bounds800), 2),
        Slot("sweep-M400", _groups(1, sweep), 1),
        Slot("weave-constant", _groups(1, weave(lambda g: "constant:1", 2.0)), 1),
        Slot("weave-seeded", _groups(1, weave(lambda g: f"seeded:{1000 + 7919 * g}:128", 2.000125)), 1),
    ]
    for case, (alpha, stride, offset, start, dimension) in enumerate(ACCURACY_CASES):
        accuracy = ("bounds", "--alpha", _f(alpha), "--N", str(stride), "--j", str(offset), "--K", str(start),
                    "--M", str(dimension))
        slots.append(
            Slot(f"accuracy-{case + 1}", _groups(1, lambda g, i, a=accuracy: a + ("--weight-value", _PASS_WEIGHTS[g])), 1)
        )
    crash = ("weave", "--alpha", "1.05", "--N", "2", "--M", "200", "--J-max", "200")
    slots.append(Slot("weave-alpha-1.05", _groups(1, lambda g, i: crash + ("--weight-value", _PASS_WEIGHTS[g])), 1))
    return slots


def _adversary_slots():
    # one L = 10 job costs 4.1 to 7.1 s across ADVERSARY_ALPHAS, so it stays
    # at alpha = 2 (ROADMAP's baseline); the L = 8 alphas come from the set
    def orbit(alpha, g, levels, extra=()):
        return ("adversary", "--alpha", _near(alpha, g), "--oracle", "orbit", "--L", str(levels)) + extra

    return [
        Slot("orbit-L10", _groups(1, lambda g, i: orbit(2.0, g, 10, ("--estimate-dim", "40"))), 1),
        Slot("orbit-L8", _groups(4, lambda g, i: orbit(ADVERSARY_ALPHAS[i], MAX_PASSES + g, 8)), 2),
        # the orthonormal oracle ignores the sequence: only its config differs
        Slot("orthonormal-L30",
             _groups(1, lambda g, i: ("adversary", "--alpha", _near(2.0, 2 * MAX_PASSES + g), "--oracle", "orthonormal",
                                     "--L", "30")),
             1),
    ]


_DESK_SCHEMES = tuple(
    (stride, offset, start) for stride in (1, 2, 3, 5) for offset in range(stride) for start in (0, 3)
)


def _desk_slots():
    def check(g, i):
        if i < 20:
            return ("check-carleson", "--alpha", _band(1.3, 3.0, 20 * g + i, 20 * MAX_PASSES))
        q = _band(0.05, 0.95, 4 * g + i - 20, 4 * MAX_PASSES)
        return ("check-carleson", "--alpha", "2.0", "--two-point-q", q, "--power", "2")

    def bounds(g, i):
        stride, offset, start = _DESK_SCHEMES[i % len(_DESK_SCHEMES)]
        return ("bounds", "--alpha", _band(1.5, 3.0, 28 * g + i, 28 * MAX_PASSES), "--weight-value", _pow2(i % 5 - 2),
                "--N", str(stride), "--j", str(offset), "--K", str(start))

    def sweep(g, i):
        return ("subsample-sweep", "--alpha", _band(1.5, 3.0, 10 * g + i, 10 * MAX_PASSES),
                "--weight-value", _pow2(i % 5 - 2))

    def weave(g, i):
        pattern = "constant:1" if i < 8 else f"seeded:{17 + 101 * (8 * g + i)}:64"
        return ("weave", "--alpha", _band(1.95, 2.05, 16 * g + i, 16 * MAX_PASSES), "--pattern", pattern)

    def adversary(g, i):
        if i == 16:
            return ("adversary", "--alpha", _near(2.0, g), "--oracle", "orthonormal")
        # the picks grow smoothly with alpha on [1.98, 2.004]; beyond it they jump
        return ("adversary", "--alpha", _band(1.98, 2.004, 16 * g + i, 16 * MAX_PASSES), "--oracle", "orbit",
                "--estimate-dim", "12")

    def invalid(g, i):
        alpha = _band(1.5, 3.0, g, MAX_PASSES)
        return (
            ("bounds", "--alpha", alpha, "--M", "0"),
            ("check-carleson", "--alpha", alpha, "--n-max", "300", "--k-trunc", "200"),
            ("bounds", "--alpha", alpha, "--N", "0"),
        )[i]

    return [
        Slot("check-carleson", _groups(24, check), 24),
        Slot("bounds", _groups(28, bounds), 28),
        Slot("subsample-sweep", _groups(10, sweep), 10),
        Slot("weave", _groups(16, weave), 16),
        Slot("adversary-L6", _groups(17, adversary), 17),
        # reproduce-paper has no parameter besides M: both copies share inputs
        Slot("reproduce-paper", _groups(2, lambda g, i: ("reproduce-paper", "--M", "40")), 2),
        Slot("invalid-parameters", _groups(3, invalid), 3),
    ]


_SLOTS = {
    "certify": _certify_slots,
    "frames": _frames_slots,
    "adversary": _adversary_slots,
    "desk": _desk_slots,
}


def slots(workload: str) -> list:
    if workload not in _SLOTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _SLOTS[workload]()


def passes(workload: str, seed: int) -> list:
    """All MAX_PASSES job lists of one run, in the order the run executes them."""
    workload_slots = slots(workload)
    rng = random.Random(f"{workload}:{seed}")
    plan = []
    for slot in workload_slots:
        order = list(range(MAX_PASSES))
        rng.shuffle(order)
        plan.append([rng.sample(slot.groups[g], slot.take) for g in order])
    runs = []
    for p in range(MAX_PASSES):
        entries = [(slot.name, argv) for slot, picks in zip(workload_slots, plan) for argv in picks[p]]
        rng.shuffle(entries)
        runs.append([Job(f"p{p}-{i:03d}", name, argv) for i, (name, argv) in enumerate(entries)])
    return runs


def all_candidates(workload: str):
    """Every (slot, argv) a run of this workload can draw, for the reference generator."""
    for slot in slots(workload):
        for group in slot.groups:
            for argv in group:
                yield slot.name, argv
