(** The pre-engine list scheduler, kept as the reference of the
    [diff.list-scheduler-vs-reference] oracle.

    Same semantics as {!Core.List_scheduler.run} — the round-robin
    actor-index fixpoint, FIFO ready lists, TDMA-gated starts — but with
    sorted completion lists, reversed-list ready queues and [Marshal]
    snapshots into a string-keyed [Hashtbl], as the scheduler was written
    before it moved onto {!Engine.Explore}. The two must agree exactly:
    the same per-tile traces and recurrence split, or the same
    exception. *)

val run :
  ?max_states:int -> Core.Bind_aware.t -> int array * int list array
(** Same contract as {!Core.List_scheduler.run}.
    @raise Core.List_scheduler.Deadlocked
    @raise Core.List_scheduler.State_space_exceeded *)
