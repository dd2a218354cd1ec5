"""Setuptools configuration.

The project keeps its metadata here (no pyproject.toml yet); the hard
runtime dependencies are NumPy (compiler/simulator array kernels, analysis,
the Table 8 correlation metrics in ``repro.core.metrics``) and SciPy, only
for the ``scipy.sparse`` scatter matrices of the learned model's training
step in ``repro.core.step``.  ``scipy.stats`` is the tests' oracle for the
two correlations and is not imported at run time.
"""

from setuptools import find_packages, setup

setup(
    name="repro-edge-tpu-nasbench",
    version="1.0.0",
    description=(
        "Reproduction of 'An Evaluation of Edge TPU Accelerators for "
        "Convolutional Neural Networks'"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.22", "scipy>=1.8"],
    extras_require={
        "test": ["pytest", "hypothesis"],
        "bench": ["pytest", "pytest-benchmark"],
    },
)
