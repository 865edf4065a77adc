(** Per-slot FIFO rings of ints.

    Every firing of a given actor has the same execution time, so the
    firing started earlier completes no later: the multiset of outstanding
    completion times of one actor is FIFO, and a ring buffer of absolute
    completion times replaces the sorted list the explorers used to
    maintain (see DESIGN, "State encoding", for the ordering argument).
    The explorers keep one ring per actor for the state encoding, which
    lists each actor's outstanding completions in start order, and learn
    which completion is due from an {!Eventq}. The list scheduler also
    keeps its per-tile ready lists in one. *)

type t

val create : int -> t
(** [create n] makes [n] empty rings. *)

val push : t -> int -> int -> unit
(** [push t a c] appends [c] to ring [a]. Completion rings rely on
    callers pushing in ascending order (fixed execution times pushed in
    start order); the ring itself only keeps insertion order. *)

val length : t -> int -> int
(** Entries held by one ring. *)

val pop_front : t -> int -> int
(** [pop_front t a] removes and returns ring [a]'s oldest entry. Ring
    [a] must be non-empty. *)

val iter : t -> int -> (int -> unit) -> unit
(** [iter t a f] applies [f] to ring [a]'s entries, oldest first. *)
