type actor = { a_idx : int; a_name : string }

type channel = {
  c_idx : int;
  c_name : string;
  src : int;
  dst : int;
  prod : int;
  cons : int;
  tokens : int;
}

type t = {
  g_actors : actor array;
  g_channels : channel array;
  (* Per actor, channel indices in channel order. Arrays rather than lists:
     parsed applications are kept for as long as their allocations, and an
     array costs a third of the list's words. *)
  g_out : int array array;
  g_in : int array array;
}

module Builder = struct
  type t = {
    mutable b_actors : actor list; (* reversed *)
    mutable b_channels : channel list; (* reversed *)
    mutable b_nactors : int;
    mutable b_nchannels : int;
    b_names : (string, int) Hashtbl.t;
  }

  let create () =
    {
      b_actors = [];
      b_channels = [];
      b_nactors = 0;
      b_nchannels = 0;
      b_names = Hashtbl.create 16;
    }

  let add_actor b name =
    if Hashtbl.mem b.b_names name then
      invalid_arg (Printf.sprintf "Sdfg.Builder.add_actor: duplicate name %S" name);
    let idx = b.b_nactors in
    Hashtbl.add b.b_names name idx;
    b.b_actors <- { a_idx = idx; a_name = name } :: b.b_actors;
    b.b_nactors <- idx + 1;
    idx

  let add_channel b ?name ?(tokens = 0) ~src ~dst ~prod ~cons () =
    if prod <= 0 || cons <= 0 then
      invalid_arg "Sdfg.Builder.add_channel: rates must be positive";
    if tokens < 0 then
      invalid_arg "Sdfg.Builder.add_channel: negative initial tokens";
    if src < 0 || src >= b.b_nactors || dst < 0 || dst >= b.b_nactors then
      invalid_arg "Sdfg.Builder.add_channel: actor index out of range";
    let idx = b.b_nchannels in
    let c_name = match name with Some n -> n | None -> Printf.sprintf "d%d" idx in
    b.b_channels <-
      { c_idx = idx; c_name; src; dst; prod; cons; tokens } :: b.b_channels;
    b.b_nchannels <- idx + 1;
    idx

  let build b =
    let g_actors = Array.of_list (List.rev b.b_actors) in
    let g_channels = Array.of_list (List.rev b.b_channels) in
    let n = Array.length g_actors in
    let adjacency endpoint =
      let lists = Array.make n [] in
      (* Right to left, so that each list ends up in channel order. *)
      for i = Array.length g_channels - 1 downto 0 do
        let c = g_channels.(i) in
        lists.(endpoint c) <- c.c_idx :: lists.(endpoint c)
      done;
      Array.map Array.of_list lists
    in
    {
      g_actors;
      g_channels;
      g_out = adjacency (fun c -> c.src);
      g_in = adjacency (fun c -> c.dst);
    }
end

let of_lists ~actors ~channels =
  let b = Builder.create () in
  List.iter (fun name -> ignore (Builder.add_actor b name)) actors;
  let idx name =
    match Hashtbl.find_opt b.Builder.b_names name with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Sdfg.of_lists: unknown actor %S" name)
  in
  let add (src, dst, prod, cons, tokens) =
    ignore
      (Builder.add_channel b ~tokens ~src:(idx src) ~dst:(idx dst) ~prod ~cons ())
  in
  List.iter add channels;
  Builder.build b

let num_actors g = Array.length g.g_actors
let num_channels g = Array.length g.g_channels
let actor g i = g.g_actors.(i)
let channel g i = g.g_channels.(i)
let actors g = g.g_actors
let channels g = g.g_channels

(* A linear scan: only parsers and tests look actors up by name, while
   every built graph would otherwise carry its own name table (the
   bind-aware graphs of the slice search are rebuilt per probe). *)
let actor_index g name =
  let rec find i =
    if i >= Array.length g.g_actors then raise Not_found
    else if String.equal g.g_actors.(i).a_name name then i
    else find (i + 1)
  in
  find 0

let actor_name g i = g.g_actors.(i).a_name
let channel_name g i = g.g_channels.(i).c_name
let out_channels g a = g.g_out.(a)
let in_channels g a = g.g_in.(a)
let is_self_loop g c = g.g_channels.(c).src = g.g_channels.(c).dst

let has_unit_self_loop g a =
  let outs = g.g_out.(a) in
  let found = ref false in
  for i = 0 to Array.length outs - 1 do
    let c = g.g_channels.(outs.(i)) in
    if c.dst = a && c.prod = 1 && c.cons = 1 && c.tokens >= 1 then found := true
  done;
  !found

let is_weakly_connected g =
  let n = num_actors g in
  if n <= 1 then true
  else begin
    let seen = Array.make n false in
    let stack = ref [ 0 ] in
    seen.(0) <- true;
    let visit j = if not seen.(j) then (seen.(j) <- true; stack := j :: !stack) in
    let rec loop () =
      match !stack with
      | [] -> ()
      | a :: rest ->
          stack := rest;
          Array.iter (fun ci -> visit g.g_channels.(ci).dst) g.g_out.(a);
          Array.iter (fun ci -> visit g.g_channels.(ci).src) g.g_in.(a);
          loop ()
    in
    loop ();
    Array.for_all Fun.id seen
  end

let map_tokens g f =
  let g_channels = Array.map (fun c -> { c with tokens = f c }) g.g_channels in
  { g with g_channels }

let pp ppf g =
  Format.fprintf ppf "@[<v>SDFG: %d actors, %d channels@," (num_actors g)
    (num_channels g);
  Array.iter (fun a -> Format.fprintf ppf "  actor %s@," a.a_name) g.g_actors;
  Array.iter
    (fun c ->
      Format.fprintf ppf "  %s: %s -(%d)-> (%d)- %s, tokens=%d@," c.c_name
        (actor_name g c.src) c.prod c.cons (actor_name g c.dst) c.tokens)
    g.g_channels;
  Format.fprintf ppf "@]"
