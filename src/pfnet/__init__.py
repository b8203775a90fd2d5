"""Point-wise affinity propagation between feature-pyramid levels.

Modules: tensor core, NN kernels, the point-flow module, the network
assembly, training, synthetic data, configuration and metrics.
"""

__version__ = "0.1.0"
