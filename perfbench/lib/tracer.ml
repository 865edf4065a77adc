(* The benchmark's own spans around calls into each layer.

   While enabled, [span name f] opens an [Obs] span (so the call lands in
   the timeline trace and the registry's timers) and accumulates, per
   name, the call count, the busy time and the self time — the duration
   minus the time covered by child spans. Spans may run on several
   domains; each domain keeps its own stack. *)

type acc = { mutable calls : int; mutable busy : float; mutable self : float }

let table : (string, acc) Hashtbl.t = Hashtbl.create 16
let lock = Mutex.create ()
let on = ref false

(* Per domain: the child time of each open span, innermost first. *)
let stack : float ref list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let enable b = on := b

let reset () =
  Mutex.lock lock;
  Hashtbl.reset table;
  Mutex.unlock lock

let record name d child =
  Mutex.lock lock;
  let a =
    match Hashtbl.find_opt table name with
    | Some a -> a
    | None ->
        let a = { calls = 0; busy = 0.; self = 0. } in
        Hashtbl.replace table name a;
        a
  in
  a.calls <- a.calls + 1;
  a.busy <- a.busy +. d;
  a.self <- a.self +. (d -. child);
  Mutex.unlock lock

let span name f =
  if not !on then f ()
  else begin
    let st = Domain.DLS.get stack in
    let child = ref 0. in
    st := child :: !st;
    let t0 = Util.now () in
    Fun.protect
      ~finally:(fun () ->
        let d = Util.now () -. t0 in
        (match !st with _ :: rest -> st := rest | [] -> ());
        (match !st with parent :: _ -> parent := !parent +. d | [] -> ());
        record name d !child)
      (fun () -> Obs.Span.with_ name f)
  end

let get name =
  Mutex.lock lock;
  let a = Hashtbl.find_opt table name in
  Mutex.unlock lock;
  match a with Some a -> (a.calls, a.busy, a.self) | None -> (0, 0., 0.)

let busy name = let _, b, _ = get name in b
let self name = let _, _, s = get name in s
