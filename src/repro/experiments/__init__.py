"""``repro.experiments`` -- harnesses regenerating every table and figure.

Each module exposes ``run(...) -> dict`` (structured data, asserted on by
tests and benchmarks) and ``render(results) -> str`` (the printable form).
``repro.experiments.runner`` runs everything.

| Module   | Reproduces                                              |
|----------|---------------------------------------------------------|
| tables   | Tables 1-3 (operators, models, plans)                   |
| fig1     | Fig. 1a/1b/1c (utilization swings, NGram sweep, overlap)|
| fig5     | Fig. 5b/5c (latency abstraction validation)             |
| fig9     | Fig. 9 (end-to-end throughput grid)                     |
| fig10    | Fig. 10 (speedup breakdown + optimality)                |
| fig11    | Fig. 11 + Table 4 (turning points + utilization)        |
| fig12    | Fig. 12 (mapping adaptability on skewed workload)       |
| table5   | Table 5 (latency predictor accuracy)                    |
"""
