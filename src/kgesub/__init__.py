"""Knowledge-graph embedding training with pluggable subsampling.

Subpackages:
    config       the run settings: one schema for files, flags and checks
    data         triples, vocabularies, the query index
    models       batched scores and gradients, parameter checkpoints
    subsampling  count-based / model-based / mixed weight tables
    decimals     shortest round-trip decimals, the text of weight rows
    training     batched negative sampling, weighted loss, lazy Adam loop
    evaluation   filtered link-prediction ranking and metrics
    submodel     sub-model scoring and grid selection
    cli          command-line pipeline
"""

import os

# kgesub's worker threads are its parallelism: one BLAS thread each, set
# before numpy is imported (a process that imported it keeps its threads)
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .data import (Dataset, Direction, QueryIndex, Vocab, load_dataset,
                   singleton_query_stats)
from .evaluation import EvalReport, aggregate_runs, evaluate
from .models import (ModelKind, ModelParams, init_params, load_params,
                     save_params, score_triples)
from .submodel import Selection, score_training_triples, select_submodel
from .subsampling import (ALPHA_GRID, LAMBDA_GRID, SubModelScores,
                          SubsamplingMethod, WeightTable, build_cbs_weights,
                          counted_frequencies, discounted_weights,
                          log_model_frequencies, mix_weights, uniform_weights)
from .training import (Gradients, batch_loss, load_checkpoint,
                       sample_negatives, save_checkpoint, train)

__version__ = "0.1.0"
