from datetime import datetime, timezone
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from geoineq.timebins import LocalClock

# UTC instants where each zone's offset changes (tz database history):
# New York leaves local mean time in 1883; Dublin leaves Dublin Mean
# Time (-0:25:21) in 1916 and has had negative DST since 1971; Lord Howe
# moves 30 minutes, Kathmandu 15 in 1986, and Apia skips 2011-12-30 (+24 h)
CHANGES = {
    "America/New_York": [-2717650800, 1394348400, 1414908000],
    "Europe/Dublin": [-1691962479, -1680471279, 1396141200, 1414285200],
    "Australia/Lord_Howe": [1396710000, 1412436600],
    "Asia/Kathmandu": [504901800],
    "Pacific/Apia": [1316872800, 1325239200, 1617458400],
}
# years 2 to 9998, whose local times are datetimes in every zone
EPOCH_MIN = int(datetime(2, 1, 1, tzinfo=timezone.utc).timestamp())
EPOCH_MAX = int(datetime(9998, 12, 31, tzinfo=timezone.utc).timestamp())


def sparse_epochs(zone):
    """Epochs in clusters around the zone's offset changes, some seconds
    and some days away, among epochs centuries apart."""
    near = st.builds(
        int.__add__,
        st.sampled_from(CHANGES[zone]),
        st.one_of(st.integers(-3, 3), st.integers(-2 * 86400, 2 * 86400)),
    )
    return st.lists(st.one_of(near, st.integers(EPOCH_MIN, EPOCH_MAX)), min_size=1, max_size=40)


@pytest.mark.parametrize("zone", list(CHANGES))
@given(data=st.data())
def test_local_fields_match_datetime(zone, data):
    epochs = data.draw(sparse_epochs(zone))
    got = LocalClock(zone, np.array(epochs, dtype=np.float64)).local_fields(epochs)
    want = []
    for e in epochs:
        loc = datetime.fromtimestamp(e, ZoneInfo(zone))
        want.append((
            loc.hour * 3600 + loc.minute * 60 + loc.second,
            loc.isoweekday() % 7,  # Sunday first
            (loc.year - 1970) * 12 + loc.month - 1,
        ))
    assert list(zip(*(a.tolist() for a in got))) == want
