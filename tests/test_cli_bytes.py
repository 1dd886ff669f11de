"""The CLI's output bytes, pinned command by command.

Each row is a command with its exit code, the SHA-256 of its stdout and the
SHA-256 of every file it writes.  The rows cover every example of the
README's CLI block (``carnot suite`` is pinned by
``test_default_suite_json_keeps_its_bytes``, and ``solve`` runs at n = 16
instead of 64), every ``verify`` command at a small grid (``decay`` at 24:
at 16 its smallest ball holds no node), and the other ``group`` and
``fields`` commands with the options their examples leave out.  All rows
run in one fresh process with one BLAS thread, each in an empty directory.
The digests belong to the numpy and BLAS build they were recorded on; a
change to a row comes with its reason.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import carnot

ROWS = [
    ("algebra new --m 2 --r 3 --out free23.json", 0,
     "304e025395df09b53197099ec94ae691e0aa97f90238120d6ecf4ff0b4a8848a",
     {"free23.json": "b716877a17a34cd2ac6c811f1db72b69c0d6aee8119608478c85f529b2f8bb90"}),
    ("algebra dims --group free:2,3", 0,
     "fe7682dad9f573ad02000060f1403c77f7c97ef3dae8a985a2578d324fbf27cf",
     {}),
    ("algebra check --group engel", 0,
     "224aa4326662fb6bf7a877836006af541bc2bc8941ddf253c5581fd7039ca6c0",
     {}),
    ("group mul --group heisenberg --p 1,2,3 --q 5,-1,2", 0,
     "0c5192c584ec9f44e9333104fb46e3b7c22cdcb0a9eaa5c9d3d65ae9474f86ee",
     {}),
    ("group mul --group engel --p ' 1/2, -2,3 ,0' --q 1,1,1,1", 0,
     "307b422af6a9b524826314ec59c072a0054520a1cb5a42ed87c9e9b76a28e9eb",
     {}),
    ("group inv --group engel --point 1,2,3,4", 0,
     "86354e25a686272d3c557846a359cebe764390f7ef20dc1f1560e349ef7ab5d6",
     {}),
    ("group dilate --group heisenberg --s 3/2 --point 1,-1,2", 0,
     "3883d2566b38e39dbebebf69d134b2f7fb30c2f4d39a56fe3082c8f47043f94b",
     {}),
    ("group gauge --group heisenberg --point 1,0,0", 0,
     "5717e7c840171019a4eeab5b79a7f894a4986eaff93d04ec5b12c9a189f594bf",
     {}),
    ("group dist --group engel --p 1,0,0,0 --q 0,1,0,1/3", 0,
     "d2602ac6f315db8d195928d707bd90394ab3e0ddbd2a415af83de837c3222c07",
     {}),
    ("group ballvol --group heisenberg --radius 1 --samples 1000000", 0,
     "2d5aaf5d5e36d39ac8d142ab2144793de3230223dbefac35e0bd75a1e8f580b7",
     {}),
    ("fields show --group heisenberg --label 1,1", 0,
     "ab7caba0553cec645161a90ebc1edbc44caae0588d061dddb7de3085be5293aa",
     {}),
    ("fields show --group engel --label 2,1", 0,
     "fb22e9c30b200b31f51e2a8dc0f543de928184af78556a055bffcec54caba1e5",
     {}),
    ("fields residual --group heisenberg --u p11*p21", 0,
     "1769b3da3710c38ca55148a1cf589415d818a496df8074a1df9fc132fc2a6818",
     {}),
    ("fields residual --group heisenberg --u p11^2 --f 1 --fi 'p21;p11*p12'", 0,
     "146e9f0a6d0986dd2cc3bc4dfd4b4603980a9551d5a841815330b5806c8f90a1",
     {}),
    ("fields residual --group engel --u 'p11;p21*p12' --f '2;p13'", 0,
     "7d08446223370e1b5eedb7268cdcf59b859e66278d9b21cd9dacb13e56d328bc",
     {}),
    ("fields commutators --group engel", 0,
     "517861859ef6386f464746df12c49d5f9dc57d50a3e95576292987ca0baaf84b",
     {}),
    ("rewrite trace --step 4 --profile 1,1,1 --json trace.json", 0,
     "0bf5a23fb44e68294d7d5dcd3a511b9b61b5d681a010755ca10501ef8a3629fc",
     {"trace.json": "e36375a0e04d6dc663deec6efacce0184533572cd3e065672fbd5e7ca5c8cbf1"}),
    ("rewrite obstruction", 0,
     "458ebccdb85c137a68e8309edb8d787407ba73c85aea3162417633e6bf67d6ff",
     {}),
    ("rewrite sweep --step 4 --max-total 6", 0,
     "b4673b51a1619f5211ffef80afabef8f2601d277bd2a4e920af13cb0c005be35",
     {}),
    ("solve --group heisenberg --n 16 --bc poly:p11 --out u.csv", 0,
     "b08bbcb2c7db5beca8ab15c25a694a588554d081007d26b2602878483e8ab3bd",
     {"u.csv": "f6e96e04385f45c2db2aae189adcb344c0f0d54a447b9501d925b48c198037ea"}),
    ("verify caccioppoli --n 12", 0,
     "ff758ac9ecf7e197a92b2bf4c24d0a62182f8763fb3411e619262bf3309d31c5",
     {}),
    ("verify peetre --n 9", 0,
     "493c60f4e7df952544dfddf33b1b599eec00f1a881dd6986a36d08897654b553",
     {}),
    ("verify hormander --n 9", 0,
     "0475de558509e63f58ba31c241ee0046114b296afd4b9388f95530d3f50d32ee",
     {}),
    ("verify decay --n 24 --tau 0.5 --radii 0.25,0.5,1", 0,
     "2ae8163f49529742dd1d2b1634b8b96dea329fd71c8a838a986490957fa4c9a5",
     {}),
    ("verify supbound --n 12", 0,
     "303ab248120247f29ae38464f3d0d69f742bfc93c9d53cc2e689321aef965fed",
     {}),
    ("verify estimate --n 12", 0,
     "27ba0ee974aefb7618e6bf6200104bd92a8d067d35a69d9906891cc1f01632bf",
     {}),
]

_SCRIPT = """
import hashlib, json, os, shlex, sys
from click.testing import CliRunner
from carnot.cli import main

def digest(data):
    return hashlib.sha256(data).hexdigest()

rows = []
runner = CliRunner()
for command in json.loads(sys.argv[1]):
    with runner.isolated_filesystem():
        result = runner.invoke(main, shlex.split(command))
        written = {}
        for name in sorted(os.listdir(".")):
            with open(name, "rb") as fh:
                written[name] = digest(fh.read())
    rows.append([result.exit_code, digest(result.stdout_bytes), written])
print(json.dumps(rows))
"""


@pytest.fixture(scope="module")
def observed():
    src = str(Path(carnot.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    commands = [command for command, *_ in ROWS]
    done = subprocess.run([sys.executable, "-c", _SCRIPT, json.dumps(commands)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return dict(zip(commands, json.loads(done.stdout)))


@pytest.mark.parametrize("command,code,stdout,written", ROWS, ids=[row[0] for row in ROWS])
def test_command_keeps_its_bytes(observed, command, code, stdout, written):
    assert observed[command] == [code, stdout, written]
