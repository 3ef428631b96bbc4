"""Fixed-seed machine output stays byte-identical to the files in golden/.

The files were written by the commands below before rational matrices were
stored as integer rows; a change that alters any byte of them fails here.
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
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_machine_output_is_byte_identical_to_golden(name, capsys):
    assert run(COMMANDS[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
