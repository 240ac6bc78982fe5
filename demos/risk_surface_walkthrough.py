"""Walk the asymptotic risk surface of a subsample ridge ensemble.

Computes the limiting prediction risk R(lambda, phis) of an infinite
ensemble on an AR(1) model, locates the two one-dimensional optima
(best ridge penalty at full data, best subsample ratio at zero penalty),
and prints the penalty <-> subsampling equivalence contour that connects
them.

Run:
    python3 demos/risk_surface_walkthrough.py
"""

import numpy as np

from subridge import (
    ar1_model,
    asymptotic_risk,
    contour_lambda_for_phis,
    equivalence_path,
    optimal_lambda,
    optimal_subsample,
)


def main():
    model, _, _ = ar1_model(rho_ar1=0.25, p_ref=500, sigma2=1.0)
    phi = 0.1  # limiting feature/sample aspect ratio p/n

    print(f"model: AR(1) features, snr = {model.rho2 / model.sigma2:.3f}, "
          f"null risk = {model.null_risk:.4f}")

    # Risk along the two axes of the (lambda, phis) surface.
    print("\nrisk at full data (phis = phi) as lambda varies:")
    for lam in (0.0, 0.1, 0.5, 1.0, 5.0):
        r = asymptotic_risk(lam, phi, phi, model).risk
        print(f"  lambda = {lam:4.1f}   risk = {r:.4f}")

    print("\nridgeless risk (lambda = 0) as the subsample ratio varies:")
    for phis in (phi, 0.5, 1.5, 2.0, 5.0):
        r = asymptotic_risk(0.0, phi, phis, model).risk
        print(f"  phis = {phis:4.2f}   risk = {r:.4f}")

    # One-dimensional optima.
    lam_star, risk_lam = optimal_lambda(phi, phi, model)
    phis_star, risk_phis = optimal_subsample(0.0, phi, model)
    print(f"\noptimal penalty at full data:  lambda* = {lam_star:.4f}  "
          f"risk = {risk_lam:.4f}")
    print(f"optimal ridgeless subsample:   phis*   = {phis_star:.4f}  "
          f"risk = {risk_phis:.4f}")

    # The contour of (lambda, phis) pairs with identical risk profiles.
    lam_bar = contour_lambda_for_phis(phi, phis_star, model.H)
    print(f"\nfull-data penalty equivalent to subsampling at phis*: "
          f"lambda-bar = {lam_bar:.4f}")

    print("\nrisk along the equivalence path (should be constant):")
    for pt in equivalence_path(phi, phis_star, model, num=5):
        print(f"  lambda = {pt.lam:.4f}  phis = {pt.phis:.4f}  "
              f"risk = {pt.risk:.6f}")


if __name__ == "__main__":
    main()
