(** Binary min-heap of pending completion events.

    The explorers advance the clock to the earliest outstanding
    completion and complete everything due then. Finding that instant by
    scanning every actor's ring head costs O(actors) per state, which
    dominates on wide graphs (H.263's HSDF expansion has thousands of
    actors). The event queue keeps one (time, actor) entry per
    outstanding firing in a heap over two flat int arrays: the next
    instant is O(1) and each pop is O(log outstanding), independent of the
    actor count. The per-actor FIFO content of {!Rings} is still
    maintained alongside for state packing; equal-keyed pops may come out
    in any actor order, which is sound because completions within one
    instant commute (each channel has a single consumer — see DESIGN
    §12). *)

type t

val create : unit -> t
val is_empty : t -> bool
val length : t -> int

val min_time : t -> int
(** Earliest pending completion time, [max_int] when empty. O(1). *)

val push : t -> int -> int -> unit
(** [push t time a] records that a firing of actor [a] completes at
    [time]. *)

val pop_min : t -> int
(** Remove a minimum-time entry and return its actor. The queue must be
    non-empty ([min_time t <> max_int]). *)

val clear : t -> unit
