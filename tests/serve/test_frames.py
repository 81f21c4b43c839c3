"""Frame / SliceReport validation."""

import pytest

from repro.errors import ServeError
from repro.serve import Frame


class TestFrameValidation:
    def test_valid_frame(self, slices3):
        f = Frame(stream_id="s", index=0, measurements=slices3[0])
        assert (f.stream_id, f.index) == ("s", 0)

    def test_empty_stream_id(self, slices3):
        with pytest.raises(ServeError, match="stream_id"):
            Frame(stream_id="", index=0, measurements=slices3[0])

    def test_negative_index(self, slices3):
        with pytest.raises(ServeError, match="index"):
            Frame(stream_id="s", index=-1, measurements=slices3[0])

    def test_frame_takes_no_deadline(self, slices3):
        """The per-slice budget is ``ServeConfig.deadline_s`` alone."""
        with pytest.raises(TypeError):
            Frame(stream_id="s", index=0, measurements=slices3[0], deadline_s=1.0)
