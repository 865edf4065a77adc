(** Static-order schedule construction (paper Section 9.2).

    A list scheduler builds the static-order schedules of all tiles at once
    by executing the binding-aware SDFG under the assumption that every used
    tile has 50% of its available time wheel. Enabled processor-bound
    firings queue in their tile's FIFO ready list; an idle tile starts the
    head of its list and the started actor is appended to the tile's
    schedule. The execution ends at the first recurrent state, which splits
    each tile's recorded trace into a prefix and a periodic part; the
    schedules are then compacted ({!Schedule.compact}), reproducing e.g.
    the paper's reduction of a 17-state schedule to [(a1 a2)*]. *)

exception Deadlocked
(** The binding-aware execution got stuck — the binding cannot meet any
    throughput constraint. *)

exception State_space_exceeded of int

val run : ?max_states:int -> Bind_aware.t -> int array * int list array
(** The list-scheduled execution itself: [(split, traces)] where
    [traces.(t)] is the start order recorded on tile [t] up to the first
    recurrent state and [split.(t)] is the length of that trace at the
    state's first visit, so [traces.(t)] is [split.(t)] prefix starts
    followed by one period. [max_states] defaults to [500_000].
    @raise Deadlocked when nothing is left to complete, or a used tile
    has an empty slice
    @raise State_space_exceeded when more than [max_states] states are
    stored *)

val schedules :
  ?max_states:int ->
  Bind_aware.t ->
  Schedule.t option array
(** [schedules ba] builds one compacted schedule per tile hosting at least
    one actor ([None] elsewhere). [ba] should be built with
    {!Bind_aware.half_wheel_slices}. [max_states] defaults to [500_000]. *)

val raw_schedules :
  ?max_states:int ->
  Bind_aware.t ->
  Schedule.t option array
(** Like {!schedules} but without the compaction step (exposed so tests
    and benches can observe the paper's 17-state example schedule). *)
