"""Exception hierarchy for the channel simulator."""


class ChannelModelError(Exception):
    """Base class for all simulator errors."""


class UnsynchronizedTracks(ChannelModelError):
    """User tracks differ in length or snapshot spacing, so segment
    boundaries cannot be shared across users."""


class EmptyArray(ChannelModelError):
    """Base-station array has no elements."""


class UnknownUser(ChannelModelError):
    """User id not present in the layout."""


class UnknownSegment(ChannelModelError):
    """Segment index outside the segment schedule."""


class ComponentTooLarge(ChannelModelError):
    """Too many cliques of users pairwise closer than 2r to enumerate."""


class InvalidScenario(ChannelModelError):
    """Scenario configuration violates its validity constraints."""


class MissingLsp(ChannelModelError):
    """No large-scale parameter draw for a (user, segment) pair."""


class DegenerateGeometry(ChannelModelError):
    """Focal-point solve has no valid solution (no excess path, or the
    direction is inconsistent with the delay)."""


class IncompleteViews(ChannelModelError):
    """Owner views are missing entries or focal points required for
    coefficient synthesis."""


class ConfigError(ChannelModelError):
    """Run configuration is invalid."""
