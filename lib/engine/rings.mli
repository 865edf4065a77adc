(** Per-actor monotone completion-time rings.

    Every firing of a given actor has the same execution time, so the
    firing started earlier completes no later: the multiset of outstanding
    completion times of one actor is FIFO, and a ring buffer of absolute
    completion times replaces the sorted list the explorers used to
    maintain (see DESIGN, "State encoding", for the ordering argument —
    it also covers the TDMA-gated completions of the constrained engine,
    which are monotone per tile by the same reasoning).

    [min_head] tracks the global earliest completion across all rings: it
    is maintained incrementally on pushes (a push can only lower it) and
    recomputed by one O(actors) head scan after a batch of pops — the
    per-event cost the old [Array.fold_left] over whole lists paid per
    element. *)

type t

val create : int -> t
(** [create n] makes [n] empty rings. *)

val push : t -> int -> int -> unit
(** [push t a c] appends completion time [c] to actor [a]'s ring. [c] must
    be no smaller than the ring's current tail (FIFO order — holds by
    construction for fixed-exec-time completions pushed in start order). *)

val length : t -> int -> int
(** Outstanding completions of one actor. *)

val min_head : t -> int
(** Earliest outstanding completion time, [max_int] when all rings are
    empty. Amortised O(1) between pops. *)

val pop_due : t -> now:int -> (int -> unit) -> unit
(** [pop_due t ~now f] pops every completion equal to [now] from every
    ring, calling [f actor] once per popped completion, actors in index
    order. *)

val pop_front : t -> int -> int
(** [pop_front t a] removes and returns actor [a]'s oldest outstanding
    completion time. Actor [a]'s ring must be non-empty. Used by the
    {!Eventq}-driven explorers, which learn the due actor from the heap
    and only need the matching FIFO entry dropped. *)

val iter : t -> int -> (int -> unit) -> unit
(** [iter t a f] applies [f] to actor [a]'s outstanding completion times
    in FIFO (ascending) order. *)
