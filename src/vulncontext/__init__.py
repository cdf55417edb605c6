"""Context-augmented LLM vulnerability triage.

Three complementary context streams are built per function: a verbalized
structural view of its AST/CFG/DFG, retrieved CWE weakness knowledge, and a
model-written functional explanation.  The three contexts join the raw code
in a four-slot instruction whose answer is the vulnerability verdict.  An
evaluation harness scores verdicts against paired datasets.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    CorpusFormatError,
    DatasetFormatError,
    LlmError,
    MissingPredictionError,
    SourceSyntaxError,
    SourceTooDeepError,
    TriageError,
    UnsupportedLanguageError,
    VerdictParseError,
    VulnContextError,
)
from .evaluation import (  # noqa: F401
    MetricsReport,
    PairOutcome,
    PairRecord,
    classify_pair,
    compute_metrics,
    mcnemar_exact,
)
from .graphs import (  # noqa: F401
    CategoryCounts,
    GraphBundle,
    SourceFunction,
    count_ast_categories,
    parse,
)
from .knowledge import (  # noqa: F401
    KnowledgeEntry,
    KnowledgeIndex,
    ReferenceEncoder,
    RetrievalQuery,
    build_knowledge_base,
    hybrid_score,
    load_cwe_corpus,
)
from .llm import ChatClient, ChatRequest, ChatResponse, ScriptedChatClient  # noqa: F401
from .pipeline import Verdict, assemble_instruction, parse_verdict, triage  # noqa: F401
from .semantic import SemanticContext, generate_explanation  # noqa: F401
from .structure import (  # noqa: F401
    Level,
    StructuralContext,
    generate_structural_context,
)
