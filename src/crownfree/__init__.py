"""Crown-free linear 3-graph toolkit.

Crown detection via link graphs and rainbow matchings, the star/discharge
bookkeeping behind the 5n/3 edge bound, mechanized replays of the
structural lemmas, and an isomorph-free exact search for the crown Turán
number at small orders.
"""

from .canon import CanonResult, canonical_form
from .crowns import (
    ColoredLinkGraph,
    CrownWitness,
    crown_oracle,
    find_crown,
    find_crown_with_base,
    find_rainbow_matching,
    greedy_crown_642,
    link_graph,
)
from .discharging import (
    DischargeTrace,
    build_discharge_sequence,
    large_set,
    lemma2_rhs,
    s_of,
    s_star,
    star_deficit_check,
    t_star,
    verify_discharge_trace,
)
from .graphs import (
    LinearityError,
    LinearThreeGraph,
    dominates,
    parse_json_graph,
    parse_l3g,
    validate_linear,
)
from .search import (
    ExtremalCertificate,
    exact_ex,
    generate_all,
    lower_bound_construction,
    random_linear_graph,
)

__version__ = "0.1.0"
