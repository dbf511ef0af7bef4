"""Relations, instances, workload generators, and hard-instance constructions."""

from repro.data.columns import (
    Column,
    ColumnBlock,
    encode_column,
    pack_blob,
    unpack_blob,
)
from repro.data.generators import (
    add_dangling,
    binary_out_controlled,
    cartesian_instance,
    forest_instance,
    line_trap_instance,
    matching_instance,
    random_instance,
    star_instance,
)
from repro.data.hard_instances import (
    embed_line3,
    line3_random_hard,
    rhier_extremal,
    triangle_random_hard,
    yannakakis_trap,
    yannakakis_trap_doubled,
)
from repro.data.instance import Instance
from repro.data.relation import Relation

__all__ = [
    "Column",
    "ColumnBlock",
    "encode_column",
    "pack_blob",
    "unpack_blob",
    "Relation",
    "Instance",
    "random_instance",
    "matching_instance",
    "forest_instance",
    "line_trap_instance",
    "binary_out_controlled",
    "cartesian_instance",
    "star_instance",
    "add_dangling",
    "yannakakis_trap",
    "yannakakis_trap_doubled",
    "line3_random_hard",
    "triangle_random_hard",
    "rhier_extremal",
    "embed_line3",
]
