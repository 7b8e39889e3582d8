"""A corpus of state files for complete:4, valid and malformed.

Each file holds (arc_id, re, im) rows for the 12 arcs of complete:4, and
most differ from a valid file in one place: line ends, headers, comments,
blanks, quotes, field counts, id and float spellings, non-finite values,
encodings and field lengths.  `tests/test_io.py` reads each one with
`read_state_csv` and with the csv.reader row loop it replaced, and
`tools/equivalence.py` runs `bounds --graph complete:4 --state csv:FILE` on
each in two trees.
"""

GOOD = [f"{a},{0.25 * (a - 5)!r},{(-1) ** a / (a + 3)!r}" for a in range(12)]
HEADER = "arc_id,re,im"


def rows(*lines, end="\n", last=True):
    """The text of these rows, each ended by `end` (the last only if `last`)."""
    return end.join(lines) + (end if last else "")


STATE_FILES = {
    "header_lf": rows(HEADER, *GOOD),
    "no_header": rows(*GOOD),
    "crlf": rows(HEADER, *GOOD, end="\r\n"),
    "lone_cr": rows(HEADER, *GOOD, end="\r"),
    "mixed_ends": HEADER + "\r\n" + "\r".join(GOOD[:6]) + "\n" + "\r\n".join(GOOD[6:]),
    "no_trailing_newline": rows(HEADER, *GOOD, last=False),
    "shuffled": rows(HEADER, *[GOOD[i] for i in (5, 0, 11, 3, 7, 1, 9, 2, 10, 4, 8, 6)]),
    "comments_and_blanks": "# a comment\n  # an indented one, with a comma\n\n"
    + rows(HEADER, *GOOD[:5], "", "#x", *GOOD[5:], "", ""),
    "second_header": rows(*GOOD[:6], HEADER, *GOOD[6:]),
    "header_variants": rows("arc_id", *GOOD[:6], "arc_id,x,y,z", *GOOD[6:]),
    "header_lookalike": rows("arc_ids,re,im", *GOOD),
    "quoted_fields": rows(HEADER, *['"{}",{},{}'.format(*r.split(",")) for r in GOOD]),
    "quoted_comma": rows(HEADER, *GOOD[:3], '"3,4",0,0', *GOOD[4:]),
    "spaced_fields": rows(*[" {} ,{} , {}".format(*r.split(",")) for r in GOOD]),
    "blank_with_spaces": rows(*GOOD[:6], "   ", *GOOD[6:]),
    "short_row": rows(*GOOD[:3], "3,0.5", *GOOD[4:]),
    "four_fields": rows(*GOOD[:3], "3,0.5,0,1", *GOOD[4:]),
    "short_then_long": rows(*GOOD[:3], "3,0.5", "4,0.1,0.2,0.3", *GOOD[5:]),
    "trailing_comma": rows(*GOOD[:6], GOOD[6] + ",", *GOOD[7:]),
    "id_x": rows(*GOOD[:3], "x,0.1,0.2", *GOOD[4:]),
    "id_float": rows(*GOOD[:3], "1.0,0.1,0.2", *GOOD[4:]),
    "id_spaced": rows(*GOOD[:3], " 3 ,0.1,0.2", *GOOD[4:]),
    "id_empty": rows(*GOOD[:3], ",0.1,0.2", *GOOD[4:]),
    "id_negative": rows(*GOOD[:3], "-1,0.1,0.2", *GOOD[4:]),
    "id_out_of_range": rows(*GOOD[:3], "12,0.1,0.2", *GOOD[4:]),
    "id_huge": rows(*GOOD[:3], "9" * 30 + ",0.1,0.2", *GOOD[4:]),
    "id_negative_in_place_of_the_last": rows(*GOOD[:11], "-1,0.1,0.2"),
    "short_and_long_rows_that_realign": rows(*GOOD[:3], "3,1", "2,4,1,1", *GOOD[5:]),
    "duplicate": rows(*GOOD[:3], "2,0.1,0.2", *GOOD[4:]),
    "every_arc_then_a_repeat": rows(*GOOD, GOOD[0]),
    "missing": rows(*GOOD[:7], *GOOD[8:]),
    "empty": "",
    "only_header": rows(HEADER),
    "bad_float": rows(*GOOD[:5], "5,abc,0", *GOOD[6:]),
    "bad_float_before_duplicate": rows(*GOOD[:5], "5,abc,0", "1,0,0", *GOOD[6:]),
    "duplicate_before_bad_float": rows(*GOOD[:5], "1,0,0", "5,abc,0", *GOOD[6:]),
    "out_of_range_before_short": rows(*GOOD[:2], "77,0,0", "3,4", *GOOD[4:]),
    "nan": rows(*GOOD[:2], "2,nan,0", *GOOD[3:]),
    "inf": rows(*GOOD[:2], "2,0,-inf", *GOOD[3:]),
    "underscores_and_padding": rows(*GOOD[:6], "6,1_0.5, 1e-3 ", *GOOD[7:]),
    "signed_zeros": rows(*[f"{a},{re},{im}" for a, (re, im) in enumerate(
        [(s, t) for s in ("-0.0", "0.0", "1.5") for t in ("-0.0", "0.0", "-2.5", "2.5")])]),
    "nul": rows(*GOOD[:6], "6,0\x00,0", *GOOD[7:]),
    "stray_quote": rows(*GOOD[:6], '6,0"5,0', *GOOD[7:]),
    "header_opens_a_quote": rows('arc_id,re,"im', *GOOD),
    "comment_opens_a_quote": rows(*GOOD[:6], '# see,"below', *GOOD[6:], '"'),
    "comment_with_nul": rows(HEADER, "# \x00", *GOOD),
    "byte_order_mark": "﻿" + rows(HEADER, *GOOD),
    "field_over_csv_limit": rows(*GOOD[:6], "6,0." + "1" * 140_000 + ",0", *GOOD[7:]),
    "long_field_under_limit": rows(*GOOD[:6], "6,0." + "0" * 100_000 + "1,0", *GOOD[7:]),
    # Where numpy's parser and int() / float() could disagree: non-ASCII and
    # control-character blanks, non-ASCII digits, id and float spellings.
    "id_no_break_space": rows(*GOOD[:3], "\xa03\xa0,0.1,0.2", *GOOD[4:]),
    "float_em_space": rows(*GOOD[:3], "3,\u20030.1\u2003,0.2", *GOOD[4:]),
    "float_vertical_tab": rows(*GOOD[:3], "3,0.1,\x0b0.2\x0b", *GOOD[4:]),
    "id_file_separator": rows(*GOOD[:3], "\x1c3,0.1,0.2", *GOOD[4:]),
    "float_unit_separator": rows(*GOOD[:3], "3,0.1\x1f,0.2", *GOOD[4:]),
    "comment_with_file_separator": rows(HEADER, "# \x1c", *GOOD),
    "id_fullwidth": rows(*GOOD[:3], "\uff13,0.1,0.2", *GOOD[4:]),
    "float_fullwidth": rows(*GOOD[:3], "3,\uff10.\uff15,0.2", *GOOD[4:]),
    "id_arabic_indic": rows(*GOOD[:3], "\u0663,0.1,0.2", *GOOD[4:]),
    "float_arabic_indic": rows(*GOOD[:3], "3,0.1,\u0660.\u0665", *GOOD[4:]),
    "id_plus": rows(*GOOD[:3], "+3,0.1,0.2", *GOOD[4:]),
    "id_leading_zero": rows(*GOOD[:3], "03,0.1,0.2", *GOOD[4:]),
    "id_minus_zero": rows("-0,0.1,0.2", *GOOD[1:]),
    "id_float_3": rows(*GOOD[:3], "3.0,0.1,0.2", *GOOD[4:]),
    "id_exponent": rows(GOOD[0], "1e0,0.1,0.2", *GOOD[2:]),
    "id_30_digits": rows(*GOOD[:3], "0" * 29 + "3,0.1,0.2", *GOOD[4:]),
    "id_30_digits_underscored": rows(*GOOD[:3], "9_" + "9" * 29 + ",0.1,0.2", *GOOD[4:]),
    "float_spellings": rows(*GOOD[:3], "3,1E5,.5", "4,5.,-1e-3", *GOOD[5:]),
    "float_overflow": rows(*GOOD[:3], "3,1e400,0", *GOOD[4:]),
    "float_infinity": rows(*GOOD[:3], "3,Infinity,0", *GOOD[4:]),
    "float_minus_nan": rows(*GOOD[:3], "3,0,-nan", *GOOD[4:]),
}
STATE_BYTES = {
    "bad_utf8": rows(HEADER, *GOOD[:6]).encode() + b"7,\xff,0\n",
    "bad_utf8_after_short_row": rows(HEADER, *GOOD[:2], "2,3", *GOOD[3:]).encode() + b"#\xff\n",
}
