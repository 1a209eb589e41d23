"""The acceptance module sweep, shared by the acceptance gate and the module tests."""

from itertools import combinations_with_replacement

from supvar.modules import kac_module, simple_module, tensor
from supvar.roots import is_dominant_integral, parse_weight, weight

ALGEBRAS = [(1, 1), (2, 1), (2, 2)]


def dominant_weights(m, n, lo, hi):
    firsts = [c for c in combinations_with_replacement(range(hi, lo - 1, -1), m)]
    seconds = [c for c in combinations_with_replacement(range(hi, lo - 1, -1), n)]
    out = []
    for f in firsts:
        for s in seconds:
            lam = weight(m, n, list(f) + list(s))
            assert is_dominant_integral(lam)
            out.append(lam)
    return out


def build_sweep():
    """(m, n, name, module, highest weight or None) for the Kac and simple modules
    of every dominant weight with entries in [-2,2], plus fixed tensor products."""
    sweep = []
    tensor_choices = {
        (1, 1): ("1|0", "0|0"),
        (2, 1): ("1,0|0", "0,0|0"),
        (2, 2): ("1,0|0,-1", "0,0|0,0"),
    }
    for m, n in ALGEBRAS:
        for lam in dominant_weights(m, n, -2, 2):
            sweep.append((m, n, f"kac:{lam}", kac_module(lam), lam))
            sweep.append((m, n, f"simple:{lam}", simple_module(lam), lam))
        la, lb = (parse_weight(m, n, t) for t in tensor_choices[(m, n)])
        sweep.append((m, n, f"tensor:K({la})xL({lb})", tensor(kac_module(la), simple_module(lb)), None))
        sweep.append((m, n, f"tensor:L({la})xL({lb})", tensor(simple_module(la), simple_module(lb)), None))
        sweep.append((m, n, f"tensor:K({lb})xK({lb})", tensor(kac_module(lb), kac_module(lb)), None))
    return sweep
