#!/usr/bin/env python3
"""Model files: exact round trips and single-task extraction.

Models serialize to versioned text with hexadecimal float literals, so a
save/load round trip reproduces predictions bit for bit. A multi-task
model can be sliced down to any one task: the shared structure is kept,
only that task's leaf values survive, and the file shrinks accordingly.
A file loads only as save_model writes it: a value spelled otherwise is
rejected.
"""

import os
import tempfile

import numpy as np

from mtboost import (
    BoosterParams,
    MTConfig,
    SyntheticSpec,
    apply_bins,
    extract_task,
    fit_bins,
    gen_synthetic,
    load_model,
    predict,
    save_model,
    train,
)
from mtboost.errors import FormatVersionMismatch

table = gen_synthetic(SyntheticSpec("noisy_tasks", m=1500, d=4, seed=5))
dataset = apply_bins(table, fit_bins(table, 32))
model = train(dataset, BoosterParams(
    objectives=("binary_logloss", "binary_logloss"),
    num_iterations=25, learning_rate=0.1, min_samples_leaf=10, seed=5,
    mt=MTConfig(task_select="uniform_random", n_selected=1),
))

with tempfile.TemporaryDirectory() as workdir:
    full_path = os.path.join(workdir, "full.txt")
    save_model(model, full_path)

    with open(full_path) as fh:
        head = [next(fh) for _ in range(8)]
    print("model file header:")
    print("".join("  " + line for line in head))

    # Round trip is lossless.
    reloaded = load_model(full_path)
    x = np.random.default_rng(0).uniform(0, 1, size=(500, 4))
    assert np.array_equal(predict(model, x), predict(reloaded, x))
    print("save -> load -> predict: bit-identical")

    # load_model reads a file only if save_model writes its lines back from
    # the model it reads: a base score written 1 loads as 1.0, which
    # save_model writes 0x1.0000000000000p+0, so the file is rejected.
    with open(full_path) as fh:
        lines = fh.read().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("base_scores "))
    lines[i] = " ".join(["base_scores", "1", *lines[i].split(" ")[2:]])
    edited_path = os.path.join(workdir, "edited.txt")
    with open(edited_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    try:
        load_model(edited_path)
    except FormatVersionMismatch as exc:
        print("base score written 1:", str(exc).replace(edited_path, "edited.txt"))

    # Extraction keeps only one task's outputs.
    aux = extract_task(model, 1)
    aux_path = os.path.join(workdir, "aux_only.txt")
    save_model(aux, aux_path)
    assert np.array_equal(predict(aux, x, task=0), predict(model, x, task=1))
    print(f"extracted task 'y_aux': predictions exact, file "
          f"{os.path.getsize(full_path)} -> {os.path.getsize(aux_path)} bytes")
