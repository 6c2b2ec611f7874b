import numpy as np
import pytest

from repro.db.types import (
    SqlType,
    check_comparable,
    common_numeric_type,
    parse_type_name,
)
from repro.errors import TypeMismatchError


class TestParseTypeName:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("INT", SqlType.INTEGER),
            ("integer", SqlType.INTEGER),
            ("BIGINT", SqlType.INTEGER),
            ("FLOAT", SqlType.FLOAT),
            ("real", SqlType.FLOAT),
            ("DOUBLE", SqlType.DOUBLE),
            ("VARCHAR", SqlType.VARCHAR),
            ("Text", SqlType.VARCHAR),
            ("BOOLEAN", SqlType.BOOLEAN),
        ],
    )
    def test_known_names(self, name, expected):
        assert parse_type_name(name) is expected

    def test_unknown_name_raises(self):
        with pytest.raises(TypeMismatchError):
            parse_type_name("BLOB")


class TestDtypeMapping:
    def test_float32_maps_to_float(self):
        assert SqlType.FLOAT.numpy_dtype == np.dtype(np.float32)

    def test_integer_is_int64(self):
        assert SqlType.INTEGER.numpy_dtype == np.dtype(np.int64)

    def test_byte_width(self):
        assert SqlType.FLOAT.byte_width == 4
        assert SqlType.INTEGER.byte_width == 8
        assert SqlType.VARCHAR.byte_width == 16


class TestPromotion:
    def test_int_float_promotes_to_float(self):
        assert (
            common_numeric_type(SqlType.INTEGER, SqlType.FLOAT)
            is SqlType.FLOAT
        )

    def test_float_double_promotes_to_double(self):
        assert (
            common_numeric_type(SqlType.FLOAT, SqlType.DOUBLE)
            is SqlType.DOUBLE
        )

    def test_varchar_arithmetic_rejected(self):
        with pytest.raises(TypeMismatchError):
            common_numeric_type(SqlType.VARCHAR, SqlType.INTEGER)


class TestComparable:
    @pytest.mark.parametrize(
        "other", [SqlType.INTEGER, SqlType.FLOAT, SqlType.DOUBLE,
                  SqlType.BOOLEAN],
    )
    def test_varchar_against_non_varchar_rejected(self, other):
        with pytest.raises(TypeMismatchError):
            check_comparable(SqlType.VARCHAR, other)
        with pytest.raises(TypeMismatchError):
            check_comparable(other, SqlType.VARCHAR)

    def test_same_family_accepted(self):
        check_comparable(SqlType.VARCHAR, SqlType.VARCHAR)
        check_comparable(SqlType.INTEGER, SqlType.FLOAT)
        check_comparable(SqlType.BOOLEAN, SqlType.INTEGER)
