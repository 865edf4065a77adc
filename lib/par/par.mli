(** A fixed-size domain work-pool for fanning out independent analyses.

    The allocation strategy spends almost all of its time in mutually
    independent self-timed state-space explorations — one throughput check
    per candidate binding, per weight-ladder rung, per application. This
    module runs such task lists on a pool of worker domains (stdlib
    [Domain]/[Mutex]/[Condition] only; no external dependency) while
    keeping the result list in input order, so callers observe exactly the
    sequential semantics.

    The pool is process-global and sized by {!set_jobs}. The default is 1:
    no domain is ever spawned and {!map} degrades to [List.map], so
    sequential runs (and their outputs) are bit-identical to a build
    without this module. The submitting thread always participates in its
    own batch, so a pool of [n] jobs uses [n - 1] worker domains plus the
    caller, and nested {!map} calls from inside a task cannot deadlock:
    the nested caller can always drain its own batch alone.

    Tasks must not themselves hold locks shared with other tasks of the
    same batch. Exceptions raised by a task are re-raised in the caller —
    after the whole batch has finished — for the smallest failing input
    index, with the original backtrace. *)

val set_jobs : int -> unit
(** [set_jobs n] resizes the global pool to [n] concurrent jobs. [n <= 0]
    selects [Domain.recommended_domain_count ()]. [n = 1] (the initial
    state) shuts the pool down and makes every subsequent {!map}
    sequential. Existing workers are joined before new ones are spawned;
    must not be called concurrently with a running {!map}. *)

val jobs : unit -> int
(** The current pool size (>= 1). *)

val set_worker_hook : (int -> unit) -> unit
(** Install a callback run on each worker domain immediately after it is
    spawned (before it takes any task), with the worker's 0-based index.
    Affects pools created by subsequent {!set_jobs} calls. The CLIs use it
    to label worker tracks in timeline traces; the default is a no-op. *)

val map : ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] applies [f] to every element of [xs], in parallel when the
    pool has more than one job, and returns the results in input order.
    [f] runs exactly once per element whether or not a sibling raises. *)

val mapi : (int -> 'a -> 'b) -> 'a list -> 'b list
(** Like {!map}, passing the element index. *)

val map_reduce :
  map:('a -> 'b) -> combine:('acc -> 'b -> 'acc) -> init:'acc -> 'a list ->
  'acc
(** [map_reduce ~map ~combine ~init xs] maps in parallel, then folds the
    results left-to-right in input order — deterministic for any
    [combine], associative or not. *)

val cancel_scope : (Budget.Cancel.t -> 'a) -> 'a
(** [cancel_scope f] runs [f token] with a fresh cancellation token and
    triggers the token when [f] returns {e or raises}. A scope abandoned by
    an exception therefore cancels every {!map_cancellable} batch and every
    budgeted analysis it shared the token with: queued tasks drain without
    running, in-flight tasks observe the token at their next budget probe.
    [f] may also trigger the token itself (early exit on first success). *)

val map_cancellable :
  cancel:Budget.Cancel.t -> ('a -> 'b) -> 'a list -> 'b option list
(** [map_cancellable ~cancel f xs] is {!map} under a cancellation token:
    every element's slot is claimed exactly once, but a slot claimed after
    [cancel] was triggered yields [None] without running [f]; slots already
    executing run to completion and yield [Some _]. The output remains in
    input order and the call still waits for the whole batch, so executed
    plus skipped always equals [List.length xs] — cancellation can never
    lose or duplicate a task. Executed and skipped elements are counted in
    {!tasks_executed} / {!tasks_skipped} even on a sequential pool.
    Exceptions propagate as in {!map}. *)

val tasks_executed : unit -> int
(** Tasks completed by {!map}/{!mapi}/{!map_reduce} batches with more than
    one element on a pool with more than one job, since process start
    (plus every element actually executed by {!map_cancellable}, pool or
    not). 0 while the pool has never been active — the CLIs export this as
    the ["pool.tasks"] telemetry counter. *)

val tasks_skipped : unit -> int
(** Tasks drained without running because their batch's cancellation token
    had been triggered by the time their slot was claimed. Exported as the
    ["pool.skipped"] telemetry counter. *)

val batches_executed : unit -> int
(** Parallel batches completed since process start. *)
