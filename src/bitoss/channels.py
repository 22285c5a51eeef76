"""Channels (point-indexed families of distributions) and Bayesian inversion.

A channel assigns to every domain point a distribution on a common codomain;
it is a conditional probability table stored extensionally so it can be
serialized and inverted.  The two operations are pushforward of a prior
along a channel and the dagger (Bayesian inversion), whose domain is the
support of the pushforward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .kernel import Dist, DomainMismatch, ModeMismatch


@dataclass(frozen=True)
class Channel:
    """A finite map from domain points to distributions.

    The domain order is the deterministic iteration order.  All kernel
    distributions must share one numeric mode.
    """

    domain: tuple
    kernel: Mapping

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(self.domain))
        object.__setattr__(self, "kernel", dict(self.kernel))
        missing = [x for x in self.domain if x not in self.kernel]
        if missing:
            raise DomainMismatch(f"no kernel distribution for {missing!r}")
        modes = {self.kernel[x].mode for x in self.domain}
        if len(modes) > 1:
            raise ModeMismatch(f"kernel distributions mix modes {sorted(modes)}")

    @property
    def mode(self) -> str:
        return self.kernel[self.domain[0]].mode

    def __call__(self, x) -> Dist:
        try:
            return self.kernel[x]
        except KeyError:
            raise DomainMismatch(f"{x!r} is not in the channel domain") from None


def push(chan: Channel, omega: Dist) -> Dist:
    """Pushforward: mix the kernel distributions with weights ``omega``."""
    if omega.mode != chan.mode:
        raise ModeMismatch(f"prior is {omega.mode} but channel is {chan.mode}")
    mixed = [(y, w * v) for x, w in omega.items() for y, v in chan(x).items()]
    return Dist(mixed, mode=omega.mode)


def dagger(chan: Channel, omega: Dist) -> Channel:
    """Bayesian inversion of a channel with respect to a prior.

    The returned channel maps each point ``y`` of its domain to the posterior
    ``x -> omega(x) * chan(x)(y) / push(chan, omega)(y)``.  Its domain is
    the support of ``push(chan, omega)``, which avoids manufactured
    division-by-zero errors on structurally empty cells.
    """
    predicted = push(chan, omega)
    kernel = {}
    for y, py in predicted.items():
        post = [(x, wx * chan(x)(y) / py) for x, wx in omega.items()]
        kernel[y] = Dist(post, mode=omega.mode)
    return Channel(predicted.support(), kernel)
