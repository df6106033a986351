"""Command-line handler of ``estimate``, one estimate from observed counts.
It has a module of its own, so an estimate run compiles no other handler.
"""

from __future__ import annotations


def estimate(parser, args, cfg, build_prior):
    from .frequentist import Dataset, ml_estimate, mvu_p1

    if not 0 <= args.k <= args.n:
        parser.error(f"--k must lie in [0, --n], got k={args.k}, n={args.n}")
    # k is echoed as a float; where n is not one, float(k) may round above it.
    args.k = float(args.k)
    data = Dataset(n=args.n, k=min(args.k, args.n))
    config_echo = {
        "omega": cfg.omega, "b0": cfg.b0, "theta": cfg.theta,
        "n": args.n, "k": args.k,
    }
    if args.mode == "ml":
        result = ml_estimate(mvu_p1(data), cfg)
        return {
            "roots": [{"value": r.value, "status": r.status.value} for r in result.roots],
            "ambiguity": result.ambiguity.value,
            "xbar": data.xbar,
            "config": config_echo,
        }
    from .posterior import PosteriorSpec, map_estimate, mmse

    spec = PosteriorSpec(data=data, cfg=cfg, prior=build_prior())
    if args.mode == "mmse":
        return {"estimate": mmse(spec), "xbar": data.xbar, "config": config_echo}
    result = map_estimate(spec)
    return {
        "maxima": [
            {
                "value": m.value,
                "log_posterior": m.log_posterior,
                "second_derivative": m.second_derivative,
                "boundary": m.boundary,
                "stationarity_residual": m.stationarity_residual,
            }
            for m in result.maxima
        ],
        "estimate": result.best.value,
        "xbar": data.xbar,
        "config": config_echo,
    }
