from .base import Problem, SmoothnessInfo
from .counterexample import CounterexampleProblem
from .logreg import (
    LogRegProblem,
    load_libsvm_problem,
    make_blobs,
    parse_libsvm,
    split_examples,
    write_libsvm,
)
from .quadratic import QuadraticProblem, generate_quadratic, load_quadratic_task, save_quadratic_task

__all__ = [
    "Problem",
    "SmoothnessInfo",
    "CounterexampleProblem",
    "LogRegProblem",
    "load_libsvm_problem",
    "make_blobs",
    "parse_libsvm",
    "split_examples",
    "write_libsvm",
    "QuadraticProblem",
    "generate_quadratic",
    "load_quadratic_task",
    "save_quadratic_task",
]
