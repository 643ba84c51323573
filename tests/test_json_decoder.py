"""The frame-reading tests again, with orjson hidden.

``read_frames`` decodes with orjson when it imports and with json
otherwise; json's reading is the one that counts.  The tests imported
here run once in their own module, with orjson as installed, and once
here under the ``without_orjson`` fixture: the parse and exit-3 tests and
every golden digest hold under both decoders.
"""

import pytest

from test_cli import (  # noqa: F401
    test_eval_deeply_nested_line_is_exit_3,
    test_eval_exit_codes_for_bad_files,
    test_eval_huge_integer_is_exit_3,
    test_eval_non_finite_coordinate_is_exit_3,
    test_iou_protocol_reports_match_golden_digests,
    test_loss_malformed_uncertainty_is_exit_3,
    test_loss_non_finite_curve_is_exit_3,
    test_non_finite_camera_is_exit_3,
    test_openlane_solver_reports_match_golden_digests,
    test_reports_match_golden_digests,
    test_scored_loss_report_matches_golden_digest,
)
from test_scenario_io import (  # noqa: F401
    test_duplicate_frame_id_rejected,
    test_huge_integer_is_a_parse_error,
    test_invalid_lane_geometry_is_a_parse_error,
    test_malformed_record_names_its_field,
    test_malformed_uncertainty_is_a_parse_error,
    test_missing_fields_name_their_path,
    test_non_finite_curve_is_a_parse_error,
    test_reading_valid_files_runs_no_per_lane_check,
    test_round_trip_many_random_records,
    test_round_trip_preserves_awkward_floats,
    test_streaming_reader_is_lazy,
    test_the_earlier_of_two_lane_faults_names_the_error,
    test_truncated_line_names_line_number,
    test_unknown_version_raises_mismatch,
    test_wide_integers_read_as_json_reads_them,
    test_written_uncertainty_round_trips_exactly,
)

pytestmark = pytest.mark.usefixtures("without_orjson")


def test_orjson_is_hidden():
    with pytest.raises(ImportError):
        import orjson  # noqa: F401
