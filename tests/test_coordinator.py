from __future__ import annotations

import sys

import pytest

from edgenas.coordinator import ExternalTrainer, TrainerError
from edgenas.search_space import default_config


def _trainer(script: str, timeout_s: float = 30.0) -> ExternalTrainer:
    return ExternalTrainer([sys.executable, "-c", script], timeout_s=timeout_s)


def test_external_trainer_reads_losses_and_receives_the_spec():
    script = (
        "import json, sys\n"
        "doc = json.load(sys.stdin)\n"
        "print(json.dumps({'val_loss': doc['embed_dim'] / 1000, 'test_loss': doc['epochs'] + doc['seed']}))\n"
    )
    assert _trainer(script).train_and_validate(default_config(), 2, 5) == (0.096, 7.0)
    assert _trainer("print('{\"val_loss\": 0.5}')").train_and_validate(default_config(), 1, 0) == (0.5, None)


@pytest.mark.parametrize(
    "script,timeout_s,message",
    [
        ("import sys; sys.exit(3)", 30.0, "^trainer exited 3: $"),
        ("print('abc')", 30.0, "^unparseable trainer output: 'abc'$"),
        ("print('{\"test_loss\": 1}')", 30.0, "^unparseable trainer output"),
        ("import time; time.sleep(5)", 0.5, r"^trainer timed out after 0\.5s$"),
    ],
)
def test_external_trainer_failures(script, timeout_s, message):
    with pytest.raises(TrainerError, match=message):
        _trainer(script, timeout_s).train_and_validate(default_config(), 1, 0)
