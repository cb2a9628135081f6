"""cofactor: joint factorization of ratings and co-click PPMI with a text anchor."""

from .corpus import (BowScheme, DocTermMatrix, EvalSplit, RatingDataset,
                     binarize_ratings, make_split, parse_clicks, parse_documents,
                     parse_ratings, subsample_ratings)
from .errors import (CheckpointError, CofactorError, ParseError, SplitError,
                     TrainingDivergedError, ValidationError)
from .factor import (Hyperparams, ModelState, TrainData, TrainingTrace,
                     load_checkpoint, predict_ratings, save_checkpoint,
                     total_loss, train)
from .ppmi import PpmiMatrix, build_ppmi
from .predict_eval import (EvalReport, SparsityPoint, SweepPoint, evaluate, rmse,
                           sweep_lambda_s, sweep_sparsity)
from .sdae import SdaeConfig, SdaeParams, corrupt, encode, pretrain, sdae_pass
from .sparse import CsrMatrix

__version__ = "0.1.0"
