"""The non-rigidity witness as first written: Θ of both graphs enumerated up
front, and each candidate reached by a round trip through orientations.
The differential tests compare `rigidlift.orcyc.nonrigidity_witness`
against it."""

from rigidlift.divisor import (
    DEFAULT_MAX_CLASSES,
    Divisor,
    DivisorClass,
    is_effective_class,
    theta_divisor,
    vertex_divisor,
)
from rigidlift.errors import InternalError, MorphismIsRigid
from rigidlift.multigraph import id_key
from rigidlift.orcyc import (
    inverse_morphism,
    is_rigid,
    pushforward_orientation,
    rigidity_divisor,
)
from rigidlift.orientation import (
    PartialOrientation,
    chern_class,
    extend_to_nonspecial,
    lift_divisor_to_orientation,
)


def nonrigidity_witness(m, max_classes=DEFAULT_MAX_CLASSES):
    """A theta element of the source whose image misses the target theta."""
    if is_rigid(m):
        raise MorphismIsRigid("morphism is rigid; no witness exists")
    g, h = m.source, m.target
    gen = g.genus
    theta_g = theta_divisor(g, max_classes=max_classes)
    theta_h = theta_divisor(h, max_classes=max_classes)
    e_rep = rigidity_divisor(m).representative
    inv = inverse_morphism(m)
    for v in sorted(h.vertex_ids, key=id_key):
        q = e_rep + vertex_divisor(h, v)
        if is_effective_class(h, q):
            continue
        t = extend_to_nonspecial(h, q)
        b = vertex_divisor(h, v) + t  # effective, degree genus - 1
        w_orient = lift_divisor_to_orientation(h, b)
        if not isinstance(w_orient, PartialOrientation):
            continue
        u = pushforward_orientation(inv, w_orient)
        s_div = chern_class(u) - Divisor(g, {g.base_head: gen - 1})
        s = DivisorClass(g, s_div)
        image = DivisorClass(h, m.push(s.representative))
        if s in theta_g and image not in theta_h:
            return s, image
    for s in sorted(theta_g, key=lambda c: tuple(c.representative.items())):
        image = DivisorClass(h, m.push(s.representative))
        if image not in theta_h:
            return s, image
    raise InternalError("non-rigid morphism but theta image matches")
