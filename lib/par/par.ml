(* A fixed-size domain work-pool built on the stdlib only ([Domain],
   [Mutex], [Condition], [Atomic]); domainslib is outside the sanctioned
   dependency set.

   Design: one global pool of [jobs - 1] worker domains blocked on a shared
   task queue. A batch ([map]) turns its input list into an array of slots;
   helper closures — one per worker, plus the submitting thread itself —
   repeatedly claim the next unclaimed slot index and execute it. Results
   land in their slot, so the output order is the input order regardless of
   scheduling. The submitter always helps with its own batch, which gives
   two properties for free:

   - [jobs = 1] spawns no domain at all and runs strictly sequentially;
   - a task that itself calls [map] (nested parallelism) can always drain
     its nested batch alone, so the pool cannot deadlock on nesting: every
     wait is on a batch with at least one slot currently executing, and the
     deepest in-flight batch only runs non-nesting tasks.

   Stale helpers (left in the queue after their batch completed) find no
   unclaimed slot and return immediately.

   Cancellation is cooperative and batch-local: a [map_cancellable] batch
   carries a [Budget.Cancel.t]; a slot claimed after the token fired is
   marked [Skipped] without running its function, while in-flight tasks
   keep running (they observe the same token through their own budget
   probes). Every slot is still claimed exactly once and the batch still
   waits for all of them, so accounting is exact: executed + skipped =
   batch size. *)

type pool = {
  mutex : Mutex.t;
  work_available : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
  size : int;  (* total jobs, including the submitting thread *)
}

let tasks_counter = Atomic.make 0
let skipped_counter = Atomic.make 0
let batches_counter = Atomic.make 0
let current : pool option ref = ref None

(* Called on each worker domain right after it is spawned, with the
   worker's 0-based index. The CLIs use it to label the worker's track in
   timeline traces (Obs.Trace.set_thread_name) without this library
   depending on the telemetry layer. *)
let worker_hook : (int -> unit) ref = ref (fun _ -> ())
let set_worker_hook f = worker_hook := f

let worker pool () =
  let rec loop () =
    Mutex.lock pool.mutex;
    while Queue.is_empty pool.queue && not pool.stop do
      Condition.wait pool.work_available pool.mutex
    done;
    if Queue.is_empty pool.queue then Mutex.unlock pool.mutex (* stop *)
    else begin
      let task = Queue.pop pool.queue in
      Mutex.unlock pool.mutex;
      task ();
      loop ()
    end
  in
  loop ()

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.work_available;
  Mutex.unlock pool.mutex;
  List.iter Domain.join pool.domains;
  pool.domains <- []

let jobs () = match !current with None -> 1 | Some p -> p.size

let set_jobs n =
  let n = if n <= 0 then Domain.recommended_domain_count () else n in
  if n <> jobs () then begin
    (match !current with None -> () | Some p -> shutdown p);
    if n = 1 then current := None
    else begin
      let pool =
        {
          mutex = Mutex.create ();
          work_available = Condition.create ();
          queue = Queue.create ();
          stop = false;
          domains = [];
          size = n;
        }
      in
      pool.domains <-
        List.init (n - 1) (fun i ->
            Domain.spawn (fun () ->
                !worker_hook i;
                worker pool ()));
      current := Some pool
    end
  end

(* One batch: slots are claimed under [b_mutex]; the result write and the
   completion count share the same critical section, so the submitter's
   final reads of [results] happen after every writer released the lock. *)
type 'b slot =
  | Empty
  | Ok_ of 'b
  | Err of exn * Printexc.raw_backtrace
  | Skipped

let run_batch ?cancel pool f items =
  let n = Array.length items in
  let results = Array.make n Empty in
  let b_mutex = Mutex.create () in
  let b_finished = Condition.create () in
  let next = ref 0 in
  let completed = ref 0 in
  let exec i =
    let r =
      match cancel with
      | Some c when Budget.Cancel.triggered c ->
          Atomic.incr skipped_counter;
          Skipped
      | _ ->
          let r =
            try Ok_ (f items.(i))
            with e -> Err (e, Printexc.get_raw_backtrace ())
          in
          Atomic.incr tasks_counter;
          r
    in
    Mutex.lock b_mutex;
    results.(i) <- r;
    incr completed;
    if !completed = n then Condition.broadcast b_finished;
    Mutex.unlock b_mutex
  in
  let rec help () =
    Mutex.lock b_mutex;
    if !next >= n then Mutex.unlock b_mutex
    else begin
      let i = !next in
      incr next;
      Mutex.unlock b_mutex;
      exec i;
      help ()
    end
  in
  Mutex.lock pool.mutex;
  for _ = 2 to min pool.size n do
    Queue.push help pool.queue
  done;
  Condition.broadcast pool.work_available;
  Mutex.unlock pool.mutex;
  help ();
  Mutex.lock b_mutex;
  while !completed < n do
    Condition.wait b_finished b_mutex
  done;
  Mutex.unlock b_mutex;
  Atomic.incr batches_counter;
  Array.iter
    (function
      | Err (e, bt) -> Printexc.raise_with_backtrace e bt
      | Ok_ _ | Empty | Skipped -> ())
    results;
  results

let mapi f xs =
  match (!current, xs) with
  | None, _ | _, ([] | [ _ ]) -> List.mapi f xs
  | Some pool, xs ->
      let items = Array.of_list xs in
      run_batch pool (fun (i, x) -> f i x) (Array.mapi (fun i x -> (i, x)) items)
      |> Array.map (function Ok_ v -> v | Empty | Err _ | Skipped -> assert false)
      |> Array.to_list

let map f xs = mapi (fun _ x -> f x) xs

let map_reduce ~map:f ~combine ~init xs =
  List.fold_left combine init (map f xs)

let cancel_scope f =
  let c = Budget.Cancel.create () in
  Fun.protect ~finally:(fun () -> Budget.Cancel.trigger c) (fun () -> f c)

let map_cancellable ~cancel f xs =
  let seq () =
    List.map
      (fun x ->
        if Budget.Cancel.triggered cancel then begin
          Atomic.incr skipped_counter;
          None
        end
        else begin
          let v = f x in
          Atomic.incr tasks_counter;
          Some v
        end)
      xs
  in
  match (!current, xs) with
  | None, _ | _, ([] | [ _ ]) -> seq ()
  | Some pool, xs ->
      run_batch ~cancel pool f (Array.of_list xs)
      |> Array.map (function
           | Ok_ v -> Some v
           | Skipped -> None
           | Empty | Err _ -> assert false)
      |> Array.to_list

let tasks_executed () = Atomic.get tasks_counter
let tasks_skipped () = Atomic.get skipped_counter
let batches_executed () = Atomic.get batches_counter
