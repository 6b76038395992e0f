"""Exception taxonomy shared by all modules.

Ingest errors on event streams are counted, not raised (skip-and-count);
the same classes double as the counter keys. Everything else raises.
"""


class GeoIneqError(Exception):
    """Base class for all library errors."""


# --- ingest ---------------------------------------------------------------

class IngestError(GeoIneqError):
    pass


class MalformedRecord(IngestError):
    """Wrong field count, broken quoting, or non-numeric required field."""


class OutOfRangeCoordinate(IngestError):
    """Latitude outside [-90, 90] or longitude outside [-180, 180]."""


class BadTimestamp(IngestError):
    """Unparseable timestamp, or one without an explicit UTC offset."""


class UndecodableRecord(IngestError):
    """A record with bytes that are not UTF-8."""


class MissingTractId(IngestError):
    pass


class NonPolygonGeometry(IngestError):
    pass


class DuplicateTractId(IngestError):
    pass


class UnclosedRing(IngestError):
    """Ring with fewer than 4 points or first point != last point."""


class NonNumericValue(IngestError):
    pass


class RateOutOfRange(IngestError):
    """Numeric value outside the valid range for its column (every value
    must be nonnegative, and rates must lie in [0, 1])."""


# --- geo ------------------------------------------------------------------

class EmptyTractSet(GeoIneqError):
    pass


class DegeneratePolygon(GeoIneqError):
    """Polygon whose area is zero within tolerance."""


# --- metrics --------------------------------------------------------------

class MetricError(GeoIneqError):
    pass


class AllZero(MetricError):
    """Every value in the distribution is zero."""


class TooFewUnits(MetricError):
    pass


class ZeroLowPercentile(MetricError):
    """Percentile-ratio denominator is zero; the ratio is undefined."""


class KeyMismatch(MetricError):
    pass


class ValueOverflow(MetricError):
    """A distribution's total, or a percentile ratio, exceeds the
    largest float."""


# --- report / synth -------------------------------------------------------

class MissingInput(GeoIneqError):
    """A required input file does not exist or cannot be read."""


class EmptyCurveList(GeoIneqError):
    pass


class BadBreakCount(GeoIneqError):
    pass


class InvalidParams(GeoIneqError):
    pass


class InternalInvariantError(GeoIneqError):
    """An internal accounting identity failed; indicates a pipeline bug."""
