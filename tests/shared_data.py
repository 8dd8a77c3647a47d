"""Test data used by more than one test module.

The file name does not match `test_*.py`, so pytest imports it from the
test modules and does not collect it.
"""

# The four published deviation-curvature entries for the wound-strings system.
REFERENCE_WS_P = {
    (0, 0): "-(2*C^2*a^6*x1^6 + 7*C^2*a^4*m^2*x1^4*x2^2 + 8*C^2*a^2*m^4*x1^2*x2^4"
    " + 3*C^2*m^6*x2^6 - 3*a^2*m^2*x1^5*x2^3*y1*y2 - 2*a^4*x1^6*x2^2"
    " + a^2*m^2*x1^4*x2^4 + 2*a^2*x1^6*x2^2*y2^2 - m^2*x1^4*x2^4*y2^2)"
    "/(x1^4*x2^2*(a^2*x1^2 + m^2*x2^2)^2)",
    (0, 1): "-(3*C^2*a^6*x1^4 + 6*C^2*a^4*m^2*x1^2*x2^2 + 3*C^2*a^2*m^4*x2^4"
    " + 3*a^2*m^2*x1^2*x2^4*y1^2 - 3*a^2*m^2*x1^2*x2^4 - 2*a^2*x1^3*x2^3*y1*y2"
    " + m^2*x1*x2^5*y1*y2)/(x1*x2^3*(a^2*x1^2 + m^2*x2^2)^2)",
    (1, 0): "-a^2*m^2*(3*C^2*a^4*x1^4 + 6*C^2*a^2*m^2*x1^2*x2^2 + 3*C^2*m^4*x2^4"
    " + a^2*x1^5*x2*y1*y2 - 2*m^2*x1^3*x2^3*y1*y2 - 3*a^2*x1^4*x2^2"
    " + 3*x1^4*x2^2*y2^2)/(x1^3*x2*(a^2*x1^2 + m^2*x2^2)^2)",
    (1, 1): "-a^2*(3*C^2*a^6*x1^6 + 8*C^2*a^4*m^2*x1^4*x2^2 + 7*C^2*a^2*m^4*x1^2*x2^4"
    " + 2*C^2*m^6*x2^6 - a^2*m^2*x1^4*x2^4*y1^2 + 2*m^4*x1^2*x2^6*y1^2"
    " + a^2*m^2*x1^4*x2^4 - 2*m^4*x1^2*x2^6 - 3*m^2*x1^3*x2^5*y1*y2)"
    "/(x1^2*x2^4*(a^2*x1^2 + m^2*x2^2)^2)",
}


def chain_model_text(n):
    """The n-mass chain with fixed ends, as in the benchmark's model_scaling:
    G_i = (k x_i + q (2 x_i - x_{i-1} - x_{i+1}) - b x_i^3 + c y_i) / (2 (1 + x_i^2))."""
    lines = [f"model chain{n}", "params k q b c", "vars " + " ".join(f"x{i}" for i in range(1, n + 1))]
    for i in range(1, n + 1):
        nb = "".join(f" - x{j}" for j in (i - 1, i + 1) if 1 <= j <= n)
        lines.append(f"G{i} = (k*x{i} + q*(2*x{i}{nb}) - b*x{i}^3 + c*y{i})/(2*(1 + x{i}^2))")
    return "\n".join(lines) + "\n"
