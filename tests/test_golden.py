"""Fixed-seed machine output stays byte-identical to the files in golden/.

The first three files were written by their commands before rational
matrices were stored as integer rows; the chern, iota and pushforward files
were written before Chern classes were solved through the dual basis of the
pairing; the center files were written before `nullspace` returned its
basis as a matrix; the q8 and tensor(mat:2,zn:2) hh files were written
before each differential was ranked on what its neighbour leaves.  The
tqft, pairing and validate files were written before every record of a
command was built from a `CheckReport`.  The `left` and `right` sides of
the 100 `partial trace naturality instance i` and 100 `trace triangle
instance i` records of verify_all.txt then changed from the placeholders
"lhs"/"rhs" and "alternating sum"/"0" to the compared values: the two
partial-trace matrices, and the defect vector against the zero vector.
No other byte of that file changed.  pushforward_outer_zn11.txt was written
before the character system was solved through a left inverse; its source
field Q(zeta_11) has phi = 10, and the kernel's mixed order is 55, the
highest conductor of any file here.  A change that alters any byte of them
fails here.
"""

from pathlib import Path

import pytest

from hochkit.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = {
    "verify_all.txt": ["verify", "all", "--seed", "0", "--format", "machine"],
    "hh_s3.txt": ["hh", "s3", "--max-degree", "3", "--format", "machine"],
    "hh_dual.txt": ["hh", "dual", "--max-degree", "4", "--cohomology", "--unnormalized",
                    "--format", "machine"],
    "chern_a4.txt": ["chern", "a4", "std", "--format", "machine"],
    "iota_q8.txt": ["iota", "q8", "std", "--format", "machine"],
    "pushforward_outer.txt": ["pushforward", "outer(zn:3#chi1,zn:4#chi3)", "ch:chi1",
                              "--format", "machine"],
    "pushforward_outer_zn11.txt": ["pushforward", "outer(zn:11#chi2,zn:5#chi3)", "ch:chi2",
                                   "--format", "machine"],
    "pushforward_morita_s3.txt": ["pushforward", "morita:s3:2", "ch:std",
                                  "--format", "machine"],
    "center_s3.txt": ["center", "s3", "--format", "machine"],
    "center_a4.txt": ["center", "a4", "--format", "machine"],
    "center_tensor.txt": ["center", "tensor(zn:3,zn:4)", "--format", "machine"],
    "hh_q8_cohomology.txt": ["hh", "q8", "--max-degree", "3", "--cohomology",
                             "--format", "machine"],
    "hh_tensor.txt": ["hh", "tensor(mat:2,zn:2)", "--max-degree", "3", "--format", "machine"],
    "tqft_s3_genus2.txt": ["tqft", "s3", "--genus", "2", "--format", "machine"],
    "pairing_zn3.txt": ["pairing", "zn:3", "ch:chi1", "[1,z3^1,0]", "--format", "machine"],
    "validate_s3.txt": ["validate", "s3", "--format", "machine"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_machine_output_is_byte_identical_to_golden(name, capsys):
    assert run(COMMANDS[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
