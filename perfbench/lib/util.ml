(* Clock, order statistics, process memory and the result line. *)

(* Seconds on the monotonic clock, to the nanosecond: the wall clock's
   microseconds would quantize the layer timings of a few microseconds,
   and could step. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Order statistics                                                   *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median a =
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank quantile of a sorted array. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) i))

type tail = { value : float; pct : float; beyond : int; n : int }

(* The highest percentile with at least ten samples beyond it; never
   below the median, so a short series reports its median. *)
let tail a =
  let n = Array.length a in
  if n = 0 then { value = 0.; pct = 0.; beyond = 0; n = 0 }
  else
    let i = n - 11 in
    if i < n / 2 then { value = median a; pct = 50.; beyond = n / 2; n }
    else
      {
        value = a.(i);
        pct = 100. *. float_of_int (i + 1) /. float_of_int n;
        beyond = n - 1 - i;
        n;
      }

let sum = List.fold_left ( +. ) 0.

(* The tail of each pass (every pass runs the same operations), then the
   median over passes: one slow pass on a busy host moves it less than a
   tail over the pooled samples. *)
let pass_tail passes =
  let ts = List.map (fun xs -> tail (sorted xs)) passes in
  let first = List.hd ts in
  ( median (sorted (List.map (fun t -> t.value) ts)),
    Printf.sprintf "median over %d passes of p%.1f of %d, %d beyond" (List.length ts)
      first.pct first.n first.beyond )

(* The median over passes of [count / seconds]: one slow pass on a busy
   host moves it less than the pooled rate. *)
let median_rate passes =
  median (sorted (List.map (fun (n, s) -> float_of_int n /. s) passes))

let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* Process memory                                                     *)
(* ------------------------------------------------------------------ *)

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0.
        | l ->
            if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                  float_of_int kb /. 1024.)
            else go ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) go

(* ------------------------------------------------------------------ *)
(* Files                                                              *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* ------------------------------------------------------------------ *)
(* Failure                                                            *)
(* ------------------------------------------------------------------ *)

exception Incorrect of string

(* A correctness failure: the run stops and prints no result. *)
let incorrect fmt = Printf.ksprintf (fun s -> raise (Incorrect s)) fmt
