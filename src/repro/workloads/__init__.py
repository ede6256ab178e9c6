"""Synthetic workloads.

The paper's programs (``/apps/snow/*.vce``) are not available, so each
workload here is a synthetic application with the same *structure*: the §5
weather-forecasting pipeline, the Monte Carlo farms and batch jobs the
§4.4 literature review cites, generic pipelines, seeded random DAGs, and
parameter sweeps.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "weather": ("WEATHER_SCRIPT", "build_weather_graph", "weather_class_map", "weather_programs"),
    "montecarlo": ("build_monte_carlo_graph",),
    "pipeline": ("build_diamond_graph", "build_pipeline_graph"),
    "randomdag": ("build_random_dag",),
    "stencil": ("build_stencil_graph", "heat_reference"),
    "sweep": ("build_sweep_graph",),
    "tenants": ("arrival_times", "build_population", "tenant_app"),
})
