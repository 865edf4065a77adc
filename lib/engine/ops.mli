module Sdfg = Sdf.Sdfg

(** Shared firing-rule primitives of the state-space engines.

    One precomputed table per analyzed graph replaces the
    [enabled]/[consume]/[produce] closures both explorers used to build
    over [Sdfg.in_channels]/[out_channels] int lists: channel indices and
    rates live in flat arrays, so the hot loop walks contiguous ints
    instead of chasing list cells. *)

type t

val of_graph : Sdfg.t -> t

val enabled : t -> int array -> int -> bool
(** [enabled ops tokens a]: every input channel of [a] holds at least its
    consumption rate. *)

val consume : t -> int array -> int -> unit
val produce : t -> int array -> int -> unit

val successors : t -> int -> int array
(** [successors ops a]: the sorted, duplicate-free consumers of [a]'s
    output channels — the only actors a firing of [a] can newly enable.
    Worklist-style fixpoints push these instead of rescanning every
    actor. *)

val insert_sorted : int -> int list -> int list
(** Insert into an ascending sorted list. Used by the retained reference
    engines ([Check.Selftimed_reference],
    [Core.Constrained.analyze_reference]) and the schedulers/simulators
    that keep list-shaped pending sets; the packed engines keep
    completions in {!Rings}. *)
