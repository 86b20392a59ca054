"""Token-level dynamic differential privacy with privacy-guided memory
sculpting for sequential multi-task training of a tiny language model."""

from .corpus import (
    CorpusStats,
    TaskCorpus,
    TokenizedSequence,
    Vocabulary,
    build_vocab,
    compute_corpus_stats,
    load_corpus,
    load_stopwords,
)
from .privacy import (
    PrivacyConfig,
    PrivacyLedger,
    allocate_budget,
    assign_budgets,
    clip,
    compose_sequence,
    noise_sigma,
    perturb_embedding,
    perturb_embeddings,
)
from .sculpt import (
    AdapterSnapshot,
    ImportanceState,
    SculptConfig,
    dynamic_lambda,
    mean_task_sensitivity,
    reg_loss,
    task_importance,
    unlearn_loss,
    update_running_importance,
)
from .sensitivity import (
    SensitivityConfig,
    SensitivityProfile,
    contextual_score,
    fuse_scores,
)
from .synthetic import SyntheticStream, synthetic_stream
from .tinylm import (
    GradientBundle,
    LoraAdapter,
    LossSpec,
    TinyLM,
    backward,
    forward,
    init_adapter,
    init_lm,
    load_checkpoint,
    lora_delta,
    save_checkpoint,
    sgd_step,
    token_losses,
)
from .trainer import (
    AccuracyMatrix,
    RunConfig,
    RunResult,
    TaskReport,
    avg_acc,
    bwt,
    evaluate,
    last_acc,
    metrics_summary,
    run_continual,
)

__version__ = "0.1.0"
