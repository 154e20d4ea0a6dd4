(** The weight-balance rule of both dynamic trees: the blocked PSTs
    and the first level of Solutions 1 and 2. It stands in for the
    BB[alpha] trees [15] the paper's update bounds assume.

    After an insert below a node, the node is the scapegoat when one
    child has become too heavy, and the caller rebuilds the node — its
    whole subtree — with its bulk builder. Rebuilding the heavy child
    instead would keep the child's weight and with it the imbalance, so
    the rule would fire again on nearly every later insert through the
    node; rebuilding the node recomputes the partition that put the
    weight there. *)

val heavy : fanout:int -> block:int -> child:int -> parent:int -> bool
(** [heavy ~fanout ~block ~child ~parent]: a node holding [parent]
    items above [4 * block] has a child holding more than
    [min (3/4, 4/fanout)] of them ([fanout] is the node's actual child
    count), in weights [child + 1] and [parent + 1]. At fan-out 2 this is
    BB[alpha] with alpha = 1/4; wider nodes allow four times the ideal
    share [1/fanout], but never more than a binary node does. *)
