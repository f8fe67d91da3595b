(* The measured process of the serve-path benchmark.

   Drives the product in-process through [Serve.handle_line], as one
   closed-loop client with no extra threads: each request is sent only
   after the previous response is back.  A pipe to a child daemon would
   add a hop that hides changes to the query path, so there is none.

   Inputs come from [gen.exe] as files (see [gen.ml]).  [ops.tsv] holds
   one operation per line:

   - [q<TAB>GROUP<TAB>CHECK<TAB>REQUEST]: one serve request.  CHECK is [-] or
     [;]-separated tokens: [desired=L1+L2] (every desired line is in the
     answer), [self=L] (line L is in the answer), [member] (an explain
     answer is a witness path), [ref] (the answer is re-walked by
     [Slicer.Reference] in the traced run);
   - [e<TAB>KIND<TAB>GROUP<TAB>LINE<TAB>SEED<TAB>TEXT]: one edit of the resident
     program (line LINE becomes TEXT), sent as a serve [update] followed
     by one thin [slice] at line SEED.  The operation is timed as both
     requests together.

   GROUP numbers the distinct operation a line repeats; the script is
   whole rounds, each sending every group once ([meta.tsv] gives the
   group count and what happens between rounds).  The percentiles are
   taken over the groups, each one's latency the wall time of its
   fastest repeat, and the rate is the groups over the sum of those.

   [--trace 0] measures the product and prints the end-to-end metrics.
   [--trace 1] additionally rebuilds the product's calls from outside
   (the steps of [Engine.load], the query path of [Serve.handle_line],
   [Delta.diff] and [Engine.update]), records one span per call, checks
   that the rebuilt path answers byte for byte like the product, and
   prints the per-layer metrics.  The last stdout line is one JSON
   object: [correct], [attempted], [failed], [metrics], plus [digest]
   (of the response stream) for the caller to compare with its golden. *)

open Slice_ir
open Slice_core
module Json = Slice_obs.Json
module Serve = Slice_serve.Serve
module Andersen = Slice_pta.Andersen

let now () = Monotonic_clock.now ()
let ms_of d = Int64.to_float d /. 1e6

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let nonempty_lines s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

let fail_count = ref 0
let problems = ref []

let problem fmt =
  Printf.ksprintf
    (fun m ->
      if List.length !problems < 20 then problems := m :: !problems;
      prerr_endline ("perfbench: " ^ m))
    fmt

(* ---- inputs ---------------------------------------------------------- *)

(* An operation's [group] names the distinct operation it repeats: the
   script is whole rounds, and every round sends each group once. *)
type op =
  | Query of { group : int; check : string list; req : string }
  | Edit of { group : int; lineno : int; seed_line : int; text : string }

let parse_op line =
  match String.split_on_char '\t' line with
  | [ "q"; group; check; req ] ->
    Query
      { group = int_of_string group;
        check = (if check = "-" then [] else String.split_on_char ';' check);
        req }
  | [ "e"; _kind; group; lineno; seed_line; text ] ->
    Edit
      { group = int_of_string group;
        lineno = int_of_string lineno;
        seed_line = int_of_string seed_line;
        text }
  | _ -> failwith ("malformed operation line: " ^ line)

let group_of = function Query { group; _ } | Edit { group; _ } -> group

(* What happens, untimed, before every round but the first, so that the
   repeats of an operation meet the same state and differ only by when
   the host ran them.  Without it later rounds run slower for reasons of
   the program's own: patched updates leave retired nodes in the graph,
   and the heap of a 10^5-statement program grows by garbage. *)
type reset =
  | Keep  (* rounds of small requests: nothing accumulates *)
  | Collect  (* a full major collection *)
  | Reload  (* a fresh serve state and set-up, then a full major collection *)

type inputs = {
  setups : int;
  groups : int;  (* distinct operations; the script is rounds of them *)
  reset : reset;
  load_lines : string list;
  sources : (string * string) list;  (* (file, source), in load order *)
  ops : op array;
}

let read_inputs dir =
  let meta =
    List.map
      (fun l ->
        match String.split_on_char '\t' l with
        | [ k; v ] -> (k, v)
        | _ -> failwith ("malformed meta line: " ^ l))
      (nonempty_lines (read_file (Filename.concat dir "meta.tsv")))
  in
  let load_lines = nonempty_lines (read_file (Filename.concat dir "setup.jsonl")) in
  let sources =
    List.map
      (fun l ->
        match Json.of_string l with
        | Ok req -> (
          match Json.member "params" req with
          | Some p -> (
            match (Json.member "file" p, Json.member "source" p) with
            | Some (Json.Str f), Some (Json.Str s) -> (f, s)
            | _ -> failwith "load request without file/source")
          | None -> failwith "load request without params")
        | Error e -> failwith e)
      load_lines
  in
  List.iter
    (fun (f, s) ->
      if read_file (Filename.concat (Filename.concat dir "src") f) <> s then
        failwith ("source file disagrees with its load request: " ^ f))
    sources;
  let groups = int_of_string (List.assoc "groups" meta) in
  let ops =
    Array.of_list (List.map parse_op (nonempty_lines (read_file (Filename.concat dir "ops.tsv"))))
  in
  (* every round holds each group exactly once *)
  let seen = Array.make groups (-1) in
  if groups < 1 || Array.length ops mod groups <> 0 then failwith "operation script is not whole rounds";
  Array.iteri
    (fun i op ->
      let g = group_of op in
      if g < 0 || g >= groups || seen.(g) = i / groups then
        failwith (Printf.sprintf "operation %d: group %d repeats within its round" i g);
      seen.(g) <- i / groups)
    ops;
  { setups = int_of_string (List.assoc "setups" meta);
    groups;
    reset =
      (match List.assoc "reset" meta with
      | "keep" -> Keep
      | "collect" -> Collect
      | "reload" -> Reload
      | r -> failwith ("unknown reset " ^ r));
    load_lines;
    sources;
    ops }

(* ---- the client side of an edit -------------------------------------- *)

(* The client's copy of the resident program: its lines, its file name
   and its serve key.  Building the next [update] request from it is
   client work and stays outside the timed interval. *)
type doc = { file : string; lines : string array; mutable key : string }

let apply_edit (d : doc) ~lineno ~text = d.lines.(lineno - 1) <- text

let doc_source d = String.concat "\n" (Array.to_list d.lines)

let request ~id ~meth params =
  Json.to_string
    (Json.Obj [ ("id", Json.Int id); ("method", Json.Str meth); ("params", Json.Obj params) ])

let slice_request ~id ~key ~line ~mode =
  request ~id ~meth:"slice"
    [ ("program", Json.Str key); ("line", Json.Int line); ("mode", Json.Str mode) ]

(* ---- responses --------------------------------------------------------- *)

let member k j = Json.member k j

let int_list = function
  | Some (Json.List l) -> List.filter_map (function Json.Int i -> Some i | _ -> None) l
  | _ -> []

(* The answer-bearing part of a response: the result (or the error),
   never the telemetry envelope, whose walls change from run to run.
   An update result keeps only its program key: the tier it reports is
   a property of the program, which an optimisation may change without
   changing any answer. *)
let answer_string ~meth (resp : Json.t) =
  match (member "result" resp, member "error" resp) with
  | Some r, _ when meth = "update" ->
    Json.to_string (Option.value (member "program" r) ~default:Json.Null)
  | Some r, _ -> Json.to_string r
  | None, Some e -> "error:" ^ Json.to_string e
  | None, None -> "no-result"

let digest = ref (Digest.string "")

let fold_digest ~id s = digest := Digest.string (Digest.to_hex !digest ^ id ^ "\n" ^ s)

let answer_lines (result : Json.t) =
  match member "result" result with
  | Some (Json.Str "report") ->
    (match member "lines" result with
    | Some (Json.List l) ->
      List.filter_map (fun o -> match member "line" o with Some (Json.Int i) -> Some i | _ -> None) l
    | _ -> [])
  | _ -> int_list (member "lines" result)

let check_answer ~(check : string list) ~(req : string) (resp : Json.t) : bool =
  match member "result" resp with
  | None ->
    problem "error answer to %s: %s" req
      (Json.to_string (Option.value (member "error" resp) ~default:Json.Null));
    false
  | Some r ->
    List.for_all
      (fun c ->
        if String.length c > 8 && String.sub c 0 8 = "desired=" then begin
          let want = List.map int_of_string (String.split_on_char '+' (String.sub c 8 (String.length c - 8))) in
          let got = answer_lines r in
          let ok = List.for_all (fun l -> List.mem l got) want in
          if not ok then problem "desired lines missing from the answer to %s" req;
          ok
        end
        else if String.length c > 5 && String.sub c 0 5 = "self=" then begin
          (* a backward slice contains its own seed line *)
          let l = int_of_string (String.sub c 5 (String.length c - 5)) in
          let ok = List.mem l (answer_lines r) in
          if not ok then problem "the answer to %s misses its own line" req;
          ok
        end
        else if c = "member" then begin
          let ok = member "path" r <> None in
          if not ok then problem "explain answer is not a witness for %s" req;
          ok
        end
        else true)
      check

(* ---- timing helpers ---------------------------------------------------- *)

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  let v = go () in
  close_in ic;
  v

let quantile (a : float array) q =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

(* The fastest repeat of each distinct operation.  Noise from the shared
   host only ever adds time, so the fastest of several repeats, one per
   round and spread over the run, estimates what the operation costs; a
   median over repeats moves with how long the host was slow during the
   run. *)
let fastest (inp : inputs) (lat : float array) =
  let best = Array.make inp.groups infinity in
  Array.iteri (fun i l -> let k = group_of inp.ops.(i) in best.(k) <- Float.min best.(k) l) lat;
  best

(* ---- the product path --------------------------------------------------- *)

let dispatch st line =
  match Serve.handle_line st line with
  | Some o -> o.Serve.resp
  | None -> failwith "blank request line"

(* One request as [Serve.serve_channels] handles a line, without the
   channel: dispatch, then the response encoded for the wire. *)
let handle st line =
  let resp = dispatch st line in
  ignore (Sys.opaque_identity (Json.to_string resp));
  resp

let new_state (inp : inputs) =
  Serve.create_state { Serve.max_programs = max 8 (2 * List.length inp.sources); jobs = 1 }

(* One set-up: a fresh serve state and every [load] request.  Returns
   the state and the wall time of the loads. *)
let setup (inp : inputs) =
  let st = new_state inp in
  let t0 = now () in
  let resps = List.map (handle st) inp.load_lines in
  let dt = Int64.sub (now ()) t0 in
  List.iter2
    (fun line resp ->
      match member "result" resp with
      | Some r -> fold_digest ~id:"load" (Json.to_string r)
      | None -> problem "load failed: %s" (String.sub line 0 (min 80 (String.length line))))
    inp.load_lines resps;
  (st, dt)

(* The client's document, for a script that edits its one program. *)
let doc_of_inputs (inp : inputs) =
  match inp.sources with
  | [ (file, src) ] when Array.exists (function Edit _ -> true | Query _ -> false) inp.ops ->
    Some { file; lines = Array.of_list (String.split_on_char '\n' src);
           key = Serve.program_key ~file src }
  | _ -> None

(* Before every round but the first: [inp.reset], outside the timed
   intervals.  [st] and [doc] are the serve state and the client's
   document the next round starts from. *)
let next_round (inp : inputs) ~st ~doc =
  match inp.reset with
  | Keep -> ()
  | Collect -> Gc.full_major ()
  | Reload ->
    (* the old state is garbage before the new one is built *)
    st := new_state inp;
    Gc.full_major ();
    st := fst (setup inp);
    doc := doc_of_inputs inp;
    Gc.full_major ()

(* Sends every operation of the script; returns the final serve state and
   the wall time of each operation. *)
let run_ops st0 (inp : inputs) : Serve.state * float array =
  let n = Array.length inp.ops in
  let lat = Array.make n 0. in
  let st = ref st0 and doc = ref (doc_of_inputs inp) in
  Array.iteri
    (fun i op ->
      if i > 0 && i mod inp.groups = 0 then next_round inp ~st ~doc;
      let st = !st in
      match op with
      | Query { check; req; _ } ->
        let t0 = now () in
        let resp = handle st req in
        lat.(i) <- ms_of (Int64.sub (now ()) t0);
        let meth =
          match Result.map (member "method") (Json.of_string req) with
          | Ok (Some (Json.Str m)) -> m
          | _ -> "?"
        in
        fold_digest ~id:(string_of_int i) (answer_string ~meth resp);
        if not (check_answer ~check ~req resp) then incr fail_count
      | Edit { lineno; seed_line; text; _ } ->
        let d = Option.get !doc in
        apply_edit d ~lineno ~text;
        let src = doc_source d in
        let key' = Serve.program_key ~file:d.file src in
        let upd =
          request ~id:(2 * i) ~meth:"update"
            [ ("program", Json.Str d.key); ("file", Json.Str d.file); ("source", Json.Str src) ]
        in
        let q = slice_request ~id:((2 * i) + 1) ~key:key' ~line:seed_line ~mode:"thin" in
        let t0 = now () in
        let r1 = handle st upd in
        let r2 = handle st q in
        lat.(i) <- ms_of (Int64.sub (now ()) t0);
        fold_digest ~id:(string_of_int i) (answer_string ~meth:"update" r1 ^ answer_string ~meth:"slice" r2);
        let ok_upd =
          match member "result" r1 with
          | Some r when member "program" r = Some (Json.Str key') -> true
          | _ ->
            problem "update %d failed: %s" i (answer_string ~meth:"slice" r1);
            false
        in
        d.key <- key';
        if not (ok_upd && check_answer ~check:[ "self=" ^ string_of_int seed_line ] ~req:q r2) then
          incr fail_count)
    inp.ops;
  (!st, lat)

(* ---- oracles (after VmHWM is read, outside every timed interval) ------- *)

let mode_of_req req =
  match Json.of_string req with
  | Ok j -> (
    let p = Option.value (member "params" j) ~default:(Json.Obj []) in
    let s k = match member k p with Some (Json.Str s) -> s | _ -> "" in
    let i k = match member k p with Some (Json.Int i) -> i | _ -> 0 in
    match member "method" j with
    | Some (Json.Str m) -> (m, s "program", i "line", Option.value (Slicer.mode_of_string (s "mode")) ~default:Slicer.Thin)
    | _ -> ("?", "", 0, Slicer.Thin))
  | Error _ -> ("?", "", 0, Slicer.Thin)

(* Re-walk a slice answer with the seed slicer ([Slicer.Reference]). *)
let reference_check ~what (h : Engine.handle) ~line ~mode (resp : Json.t) =
  let a = h.Engine.h_analysis in
  let want =
    Slicer.locs_to_line_numbers
      (Slicer.Reference.slice_lines a.Engine.sdg ~seeds:(Engine.seeds_at_line_exn a line) mode)
  in
  if Option.map (fun r -> int_list (member "lines" r)) (member "result" resp) <> Some want then begin
    problem "%s: answer differs from the reference slicer" what;
    incr fail_count
  end

(* The operations the final state has seen: the last round when every
   round starts from a fresh set-up, else the whole script. *)
let since_reload (inp : inputs) =
  let n = Array.length inp.ops in
  if inp.reset = Reload then Array.sub inp.ops (n - inp.groups) inp.groups else inp.ops

let last_seed_line (inp : inputs) =
  Array.fold_left (fun acc -> function Edit { seed_line; _ } -> seed_line | Query _ -> acc) 0 inp.ops

(* After an edit script: the resident program must answer exactly like a
   fresh load of the final source, at the seed line and at the lines the
   last edits touched. *)
let fresh_parity st (inp : inputs) =
  match doc_of_inputs inp with
  | None -> ()
  | Some d ->
    let edited = ref [] in
    Array.iter
      (function
        | Edit { lineno; text; _ } ->
          apply_edit d ~lineno ~text;
          edited := lineno :: !edited
        | Query _ -> ())
      (since_reload inp);
    let src = doc_source d in
    let key = Serve.program_key ~file:d.file src in
    let fresh = new_state inp in
    ignore
      (handle fresh
         (request ~id:0 ~meth:"load" [ ("file", Json.Str d.file); ("source", Json.Str src) ]));
    let lines =
      last_seed_line inp :: List.sort_uniq compare (List.filteri (fun i _ -> i < 8) !edited)
    in
    List.iter
      (fun line ->
        List.iter
          (fun mode ->
            let q = slice_request ~id:0 ~key ~line ~mode in
            let a = answer_string ~meth:"slice" (handle st q)
            and b = answer_string ~meth:"slice" (handle fresh q) in
            if a <> b then begin
              problem "after the edits, line %d (%s) answers differently from a fresh load" line mode;
              incr fail_count
            end)
          [ "thin"; "trad" ])
      lines

(* ---- tracing: the product's calls rebuilt from outside ------------------ *)

module Trace = struct
  type span = {
    id : int;
    mutable name : string;
    parent : int;  (* -1 for a root *)
    req : int;
    t0 : int64;
    mutable t1 : int64;
    mutable inner : Slice_obs.span_tree list;
        (* spans the program records itself ([Slice_obs]), kept as children *)
  }

  let all : span list ref = ref []
  let stack : span list ref = ref []
  let next = ref 0

  let open_ ~req name =
    let parent = match !stack with s :: _ -> s.id | [] -> -1 in
    let s = { id = !next; name; parent; req; t0 = now (); t1 = 0L; inner = [] } in
    incr next;
    stack := s :: !stack;
    s

  let close s =
    s.t1 <- now ();
    stack := List.tl !stack;
    all := s :: !all

  let span ?(req = 0) name f =
    let s = open_ ~req name in
    let r = f () in
    close s;
    r

  (* A leaf call whose own [Slice_obs] spans are kept as its children. *)
  let span_inner ?(req = 0) name f =
    let s = open_ ~req name in
    let r, snap = Slice_obs.scoped f in
    close s;
    s.inner <- snap.Slice_obs.snap_spans;
    r

  let wall s = Int64.sub s.t1 s.t0

  (* What recording one span costs, from recording empty ones. *)
  let cost_ns () =
    let n = 100_000 and saved = !all in
    let t0 = now () in
    for _ = 1 to n do
      span "calibration" ignore
    done;
    let dt = Int64.sub (now ()) t0 in
    all := saved;
    Int64.to_float dt /. float_of_int n

  (* Self time per span: its wall minus the walls of its (outside)
     children. *)
  let self_times () =
    let child = Hashtbl.create 1024 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace child s.parent
            (Int64.add (wall s) (Option.value (Hashtbl.find_opt child s.parent) ~default:0L)))
      !all;
    List.map (fun s -> (s, Int64.sub (wall s) (Option.value (Hashtbl.find_opt child s.id) ~default:0L))) !all

  let to_json s =
    let inner =
      Slice_obs.snapshot_to_json
        { Slice_obs.snap_counters = []; snap_gauges = []; snap_hists = [];
          snap_hist_buckets = []; snap_spans = s.inner }
    in
    Json.Obj
      [ ("id", Json.Int s.id);
        ("name", Json.Str s.name);
        ("parent", Json.Int s.parent);
        ("req", Json.Int s.req);
        ("start_ns", Json.Int (Int64.to_int s.t0));
        ("end_ns", Json.Int (Int64.to_int s.t1));
        ("inner", Option.value (member "spans" inner) ~default:(Json.List [])) ]

  let write path =
    let oc = open_out_bin path in
    List.iter (fun s -> output_string oc (Json.to_string (to_json s)); output_char oc '\n') (List.rev !all);
    close_out oc
end

(* [Engine.load] rebuilt step by step, in the engine's order. *)
let traced_load ~req ((file, src) : string * string) : Engine.handle * int =
  Trace.span ~req "setup.load" (fun () ->
      let h, _ =
        Slice_obs.scoped (fun () ->
            let toks = Trace.span_inner ~req "front.lex" (fun () -> Slice_front.Lexer.tokenize ~file src) in
            let cu = Trace.span_inner ~req "front.parse" (fun () -> Slice_front.Parser.parse_unit ~file toks) in
            let p = Program.create () in
            Trace.span_inner ~req "front.declare" (fun () -> Slice_front.Declare.run p cu);
            Trace.span_inner ~req "front.lower" (fun () -> Slice_front.Lower.run p cu);
            Trace.span_inner ~req "front.ssa" (fun () -> Program.iter_methods p (fun m -> Ssa.convert p m));
            let pta = Trace.span_inner ~req "pta.solve" (fun () -> Andersen.analyze ~opts:Andersen.default_opts p) in
            let arena = Trace.span_inner ~req "arena.build" (fun () -> Arena.build p) in
            let sdg = Trace.span_inner ~req "sdg.build" (fun () -> Sdg.build ~arena p pta) in
            Trace.span_inner ~req "sdg.freeze" (fun () -> Sdg.freeze sdg);
            let a = { Engine.program = p; pta; sdg; arena; obj_sens = true } in
            ( { Engine.h_analysis = a; h_stats = Engine.stats_of a; h_sources = [ (file, src) ];
                h_container_classes = None; h_obj_sens = true; h_solver = `Bitset },
              List.length toks ))
      in
      h)

(* Live heap growth across each layer of one load, after full major
   collections.  Run in a process of its own ([--probe]): its loads would
   otherwise add about 500 MB at 10^5 statements to the traced run's
   peak. *)
let retained_probe ((file, src) : string * string) =
  let live () =
    Gc.full_major ();
    float_of_int (Gc.stat ()).Gc.live_words *. float_of_int (Sys.word_size / 8) /. 1048576.
  in
  let p = Slice_front.Frontend.load_many_exn [ (file, src) ] in
  let m0 = live () in
  let pta = Andersen.analyze ~opts:Andersen.default_opts p in
  let m1 = live () in
  let arena = Arena.build p in
  let m2 = live () in
  let sdg = Sdg.build ~arena p pta in
  Sdg.freeze sdg;
  let m3 = live () in
  ignore (Sys.opaque_identity (p, pta, arena, sdg));
  (m1 -. m0, m3 -. m2)

type layer_acc = {
  mutable slice_nodes : int;
  mutable slice_lines : int;
  mutable queries : int;
  mutable slices : int;
  mutable requests : int;
  mutable hits : int;
  mutable misses : int;
  mutable edits : int;
  tiers : (string, int) Hashtbl.t;
  mutable prod_ns : int64;  (* product wall of the traced operations *)
  mutable gc_minor : int;
  mutable gc_major : int;
  mutable minor_words : float;
}

let acc =
  { slice_nodes = 0; slice_lines = 0; queries = 0; slices = 0; requests = 0; hits = 0;
    misses = 0; edits = 0; tiers = Hashtbl.create 8; prod_ns = 0L; gc_minor = 0;
    gc_major = 0; minor_words = 0. }

let count_cache resp =
  acc.requests <- acc.requests + 1;
  match Option.bind (member "telemetry" resp) (member "cache") with
  | Some (Json.Str "hit") -> acc.hits <- acc.hits + 1
  | Some (Json.Str "miss") -> acc.misses <- acc.misses + 1
  | _ -> ()

(* The query half of [Serve.handle_line], rebuilt from outside.
   Returns the encoded result, to be compared with the product's. *)
let traced_query ~req_id (handles : (string, Engine.handle) Hashtbl.t) (line : string) : string =
  let j =
    Trace.span ~req:req_id "serve.decode" (fun () ->
        match Json.of_string line with Ok j -> j | Error e -> failwith e)
  in
  let meth, key, ln, mode = mode_of_req line in
  let p = Option.value (member "params" j) ~default:(Json.Obj []) in
  let h = Hashtbl.find handles key in
  let a = h.Engine.h_analysis in
  acc.queries <- acc.queries + 1;
  let q, r =
    match meth with
    | "slice" ->
      acc.slices <- acc.slices + 1;
      let seeds = Trace.span ~req:req_id "query.resolve" (fun () -> Engine.seeds_at_line_exn a ln) in
      let nodes = Trace.span ~req:req_id "query.walk" (fun () -> Slicer.slice a.Engine.sdg ~seeds mode) in
      let lines =
        Trace.span ~req:req_id "query.emit" (fun () ->
            Slicer.locs_to_line_numbers (Slicer.nodes_to_lines a.Engine.sdg nodes))
      in
      acc.slice_nodes <- acc.slice_nodes + List.length nodes;
      acc.slice_lines <- acc.slice_lines + List.length lines;
      (Engine.Q_slice { line = ln; mode; forward = false }, Engine.R_lines lines)
    | _ ->
      let gi k = match member k p with Some (Json.Int i) -> i | _ -> 0 in
      let q =
        match meth with
        | "expand" -> Engine.Q_expand { line = ln }
        | "report" -> Engine.Q_report { line = ln; mode }
        | "explain" -> Engine.Q_explain { seed_line = gi "seed"; line = ln; mode }
        | m -> failwith ("untraceable method " ^ m)
      in
      (q, Trace.span ~req:req_id "query.run" (fun () -> Engine.run_query h q))
  in
  let j = Trace.span ~req:req_id "query.encode" (fun () -> Engine.query_result_to_json h q r) in
  Trace.span ~req:req_id "query.wire" (fun () -> Json.to_string j)

(* One product request, dispatched and timed from outside as a
   [serve.request] root span, with the collections and allocation it
   caused.  The traced run leaves out the wire encoding: the response
   envelope carries wall times, whose printed length varies from run to
   run, and the collection counts must repeat exactly. *)
let traced_request ~req st line =
  let g0 = Gc.quick_stat () in
  let s = Trace.open_ ~req "serve.request" in
  let r = dispatch st line in
  Trace.close s;
  let g1 = Gc.quick_stat () in
  acc.prod_ns <- Int64.add acc.prod_ns (Trace.wall s);
  acc.gc_minor <- acc.gc_minor + (g1.Gc.minor_collections - g0.Gc.minor_collections);
  acc.gc_major <- acc.gc_major + (g1.Gc.major_collections - g0.Gc.major_collections);
  acc.minor_words <- acc.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
  r

let parity ~what a b =
  if a <> b then begin
    problem "traced %s differs from the product's answer" what;
    incr fail_count
  end

let run_traced (inp : inputs) ~trace_out =
  (* product set-up: the state the product operations run against *)
  Gc.full_major ();
  let st, _ = setup inp in
  (* one traced set-up *)
  let handles = Hashtbl.create 32 in
  let tokens = ref 0 in
  Gc.full_major ();
  List.iteri
    (fun k ((file, src) as s) ->
      let h, ntok = traced_load ~req:(-1 - k) s in
      Slice_obs.reset_spans ();
      tokens := !tokens + ntok;
      Hashtbl.replace handles (Serve.program_key ~file src) h)
    inp.sources;
  (* the traced load must describe the same program as the product's *)
  Hashtbl.iter
    (fun key h ->
      let prod = handle st (request ~id:0 ~meth:"stats" [ ("program", Json.Str key) ]) in
      parity ~what:"load (stats)"
        (answer_string ~meth:"stats" prod)
        (Json.to_string (Engine.query_result_to_json h Engine.Q_stats (Engine.R_stats h.Engine.h_stats))))
    handles;
  let shape = Hashtbl.fold (fun _ h l -> h :: l) handles [] in
  let sum f = List.fold_left (fun n h -> n + f h.Engine.h_analysis) 0 shape in
  let ir_stmts = sum (fun a -> Program.stmt_count a.Engine.program) in
  let objects = sum (fun a -> Andersen.num_objects a.Engine.pta) in
  let contexts = sum (fun a -> Andersen.num_call_graph_nodes a.Engine.pta) in
  let arena_bytes = sum (fun a -> Arena.bytes a.Engine.arena) in
  let nodes = sum (fun a -> Sdg.num_nodes a.Engine.sdg) in
  let edges = sum (fun a -> Sdg.num_edges a.Engine.sdg) in
  Gc.full_major ();
  let st = ref st and doc = ref (doc_of_inputs inp) in
  let mirror = ref (match !doc with Some d -> Some (Hashtbl.find handles d.key) | None -> None) in
  Array.iteri
    (fun i op ->
      let req = i + 1 in
      if i > 0 && i mod inp.groups = 0 then begin
        (* the rebuilt path starts the round from a fresh load too *)
        if inp.reset = Reload then begin
          Hashtbl.reset handles;
          mirror := None;
          List.iter (fun ((file, src) as s) ->
              let h = Engine.load [ s ] in
              Hashtbl.replace handles (Serve.program_key ~file src) h;
              mirror := Some h)
            inp.sources;
          Slice_obs.reset_spans ()
        end;
        next_round inp ~st ~doc
      end;
      let st = !st and doc = !doc in
      match op with
      | Query { req = line; check; _ } ->
        let resp = traced_request ~req st line in
        count_cache resp;
        if not (check_answer ~check ~req:line resp) then incr fail_count;
        let mine = Trace.span ~req "op" (fun () -> traced_query ~req_id:req handles line) in
        Slice_obs.reset_spans ();
        parity ~what:"query" (answer_string ~meth:"query" resp) mine;
        (match mode_of_req line with
        | "slice", key, line, mode when List.mem "ref" check ->
          reference_check ~what:(Printf.sprintf "operation %d" i) (Hashtbl.find handles key) ~line ~mode resp
        | _ -> ())
      | Edit { lineno; seed_line; text; _ } ->
        let d = Option.get doc in
        let old_sources = [ (d.file, doc_source d) ] in
        apply_edit d ~lineno ~text;
        let src = doc_source d in
        let key' = Serve.program_key ~file:d.file src in
        let upd =
          request ~id:req ~meth:"update"
            [ ("program", Json.Str d.key); ("file", Json.Str d.file); ("source", Json.Str src) ]
        in
        let q = slice_request ~id:req ~key:key' ~line:seed_line ~mode:"thin" in
        let r1 = traced_request ~req st upd in
        let r2 = traced_request ~req st q in
        count_cache r1;
        count_cache r2;
        if member "result" r1 = None || not (check_answer ~check:[] ~req:q r2) then incr fail_count;
        Hashtbl.remove handles d.key;
        d.key <- key';
        (* [Engine.update] runs the same diff inside; timed alone here,
           as its own root, so the traced edit is not charged twice *)
        ignore
          (Trace.span ~req "delta.diff" (fun () ->
               Slice_front.Delta.diff ~old_sources ~new_sources:[ (d.file, src) ]));
        let mine =
          Trace.span ~req "edit" (fun () ->
              let j =
                Trace.span ~req "serve.decode" (fun () ->
                    match Json.of_string upd with Ok j -> j | Error e -> failwith e)
              in
              let sources =
                match Option.bind (member "params" j) (member "source") with
                | Some (Json.Str s) -> [ (d.file, s) ]
                | _ -> failwith "update without source"
              in
              let s = Trace.open_ ~req "update" in
              let (h', report), snap = Slice_obs.scoped (fun () -> Engine.update (Option.get !mirror) sources) in
              Trace.close s;
              s.inner <- snap.Slice_obs.snap_spans;
              let tier = Engine.update_path_to_string report.Engine.up_path in
              s.name <- "update." ^ tier;
              Hashtbl.replace acc.tiers tier (1 + Option.value (Hashtbl.find_opt acc.tiers tier) ~default:0);
              acc.edits <- acc.edits + 1;
              mirror := Some h';
              Hashtbl.replace handles key' h';
              let answer = Trace.span ~req "update.requery" (fun () -> traced_query ~req_id:req handles q) in
              (tier, answer))
        in
        Slice_obs.reset_spans ();
        let tier, answer = mine in
        let prod_tier =
          match Option.bind (member "result" r1) (member "path") with Some (Json.Str p) -> p | _ -> "?"
        in
        parity ~what:"update tier" prod_tier tier;
        parity ~what:"re-slice" (answer_string ~meth:"slice" r2) answer)
    inp.ops;
  (* after the edit script: canonical points-to and call-graph dumps of
     the updated program equal a fresh load's *)
  let st = !st in
  (match (!doc, !mirror) with
  | Some d, Some h ->
    let fresh = Engine.load [ (d.file, doc_source d) ] in
    let dump a = (Engine.pts_dump_canonical a, Engine.call_graph_dump_canonical a) in
    if dump h.Engine.h_analysis <> dump fresh.Engine.h_analysis then begin
      problem "after the edits, points-to or call-graph dumps differ from a fresh load";
      incr fail_count
    end;
    let line = last_seed_line inp in
    reference_check ~what:"after the edits" fresh ~line ~mode:Slicer.Thin
      (handle st (slice_request ~id:0 ~key:d.key ~line ~mode:"thin"))
  | _ -> ());
  Option.iter Trace.write trace_out;
  (* ---- per-layer metrics ---- *)
  let selfs = Trace.self_times () in
  let total name =
    List.fold_left (fun t (s, self) -> if s.Trace.name = name then Int64.add t self else t) 0L selfs
  in
  let per n name = if n = 0 then 0. else ms_of (total name) /. float_of_int n in
  let setups = 1 and n_ops = Array.length inp.ops in
  let reqs = max 1 acc.requests in
  let prod_ms = ms_of acc.prod_ns in
  let roots =
    List.filter (fun (s, _) -> List.mem s.Trace.name [ "setup.load"; "op"; "edit" ]) selfs
  in
  let root_wall = List.fold_left (fun t (s, _) -> Int64.add t (Trace.wall s)) 0L roots in
  let root_self = List.fold_left (fun t (_, self) -> Int64.add t self) 0L roots in
  let op_wall =
    List.fold_left
      (fun t (s, _) -> if s.Trace.name = "op" || s.Trace.name = "edit" then Int64.add t (Trace.wall s) else t)
      0L roots
  in
  (* the spans recorded on the traced operations' path *)
  let op_spans =
    List.length
      (List.filter
         (fun (s, _) ->
           s.Trace.req > 0 && s.Trace.name <> "serve.request" && s.Trace.name <> "delta.diff")
         selfs)
  in
  let span_cost_ns = Trace.cost_ns () in
  let walk = total "query.walk" in
  let qsum =
    List.fold_left (fun t n -> Int64.add t (total n)) 0L
      [ "query.resolve"; "query.walk"; "query.emit"; "query.encode"; "query.wire" ]
  in
  (* the rebuilt path of the operations, without the wire encoding the
     product's [handle_line] leaves to its caller *)
  let rebuilt_ms = ms_of (Int64.sub op_wall (total "query.wire")) in
  let tier n = float_of_int (Option.value (Hashtbl.find_opt acc.tiers n) ~default:0) in
  let per_tier n = let c = tier n in if c = 0. then 0. else ms_of (total ("update." ^ n)) /. c in
  let f = float_of_int in
  [ ("front.lex_ms", per setups "front.lex");
    ("front.parse_ms", per setups "front.parse");
    ("front.declare_ms", per setups "front.declare");
    ("front.lower_ms", per setups "front.lower");
    ("front.ssa_ms", per setups "front.ssa");
    ("front.tokens", f !tokens);
    ("front.ir_stmts", f ir_stmts);
    ("pta.solve_ms", per setups "pta.solve");
    ("pta.objects", f objects);
    ("pta.contexts", f contexts);
    ("arena.build_ms", per setups "arena.build");
    ("arena.bytes", f arena_bytes);
    ("sdg.build_ms", per setups "sdg.build");
    ("sdg.freeze_ms", per setups "sdg.freeze");
    ("sdg.nodes", f nodes);
    ("sdg.edges", f edges);
    ("query.resolve_ms", per acc.slices "query.resolve");
    ("query.walk_ms", per acc.slices "query.walk");
    ("query.emit_ms", per acc.slices "query.emit");
    ("query.run_ms", per (acc.queries - acc.slices) "query.run");
    ("query.encode_ms", ms_of (Int64.add (total "query.encode") (total "query.wire")) /. f (max 1 acc.queries));
    ("query.slice_nodes", f acc.slice_nodes);
    ("query.slice_lines", f acc.slice_lines);
    ("query.walk_share", if qsum = 0L then 0. else Int64.to_float walk /. Int64.to_float qsum);
    ("serve.decode_ms", per reqs "serve.decode");
    ("serve.request_ms", prod_ms /. f reqs);
    ("serve.overhead_ms", (prod_ms -. rebuilt_ms) /. f reqs);
    ("serve.cache_hit_ratio", if acc.hits + acc.misses = 0 then 0. else f acc.hits /. f (acc.hits + acc.misses));
    ("delta.diff_ms", per acc.edits "delta.diff");
    ("update.patched_ms", per_tier "patched");
    ("update.resolved-incremental_ms", per_tier "resolved-incremental");
    ("update.resolved-fresh_ms", per_tier "resolved-fresh");
    ("update.rebuilt_ms", per_tier "rebuilt");
    ("update.requery_ms",
     if acc.edits = 0 then 0.
     else
       List.fold_left
         (fun t (s, _) -> if s.Trace.name = "update.requery" then t +. ms_of (Trace.wall s) else t)
         0. selfs
       /. f acc.edits);
    ("update.tier.noop", tier "noop");
    ("update.tier.patched", tier "patched");
    ("update.tier.resolved-incremental", tier "resolved-incremental");
    ("update.tier.resolved-fresh", tier "resolved-fresh");
    ("update.tier.rebuilt", tier "rebuilt");
    ("gc.minor_collections", f acc.gc_minor);
    ("gc.major_collections", f acc.gc_major);
    ("gc.minor_words_per_op", acc.minor_words /. f (max 1 n_ops));
    ("trace.overhead_pct", 100. *. span_cost_ns *. f op_spans /. Int64.to_float op_wall);
    ("trace.unaccounted_pct", 100. *. Int64.to_float root_self /. Int64.to_float root_wall) ]

(* ---- main --------------------------------------------------------------- *)

let () =
  let inputs = ref "" and trace = ref 0 and trace_out = ref "" and setup_only = ref false
  and probe = ref false in
  Arg.parse
    [ ("--inputs", Arg.Set_string inputs, "DIR");
      ("--setup-only", Arg.Set setup_only, " time the set-ups but one and exit");
      ("--probe", Arg.Set probe, " measure the retained heap of each layer and exit");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--trace-out", Arg.Set_string trace_out, "FILE") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "measure.exe --inputs DIR [--setup-only | --probe] [--trace 0|1] [--trace-out FILE]";
  let inp = read_inputs !inputs in
  let n_ops = Array.length inp.ops in
  let metrics =
    if !setup_only then
      (* the set-ups but the last, each from a fresh state and a
         collected heap; the caller takes the median with the last *)
      List.init (inp.setups - 1) (fun i ->
          Gc.full_major ();
          (* 0.2 s apart: the shared host's speed changes within a
             second, and spread set-ups give a median that does not rest
             on one moment of it *)
          if i > 0 then Unix.sleepf 0.2;
          (Printf.sprintf "setup_s.%d" i, ms_of (snd (setup inp)) /. 1e3))
    else if !probe then begin
      let pta_mb, sdg_mb =
        List.fold_left
          (fun (x, y) s ->
            let a, b = retained_probe s in
            (x +. a, y +. b))
          (0., 0.) inp.sources
      in
      [ ("pta.retained_mb", pta_mb); ("sdg.retained_mb", sdg_mb) ]
    end
    else if !trace = 0 then begin
      let st, wall = setup inp in
      Gc.full_major ();
      let st, lat = run_ops st inp in
      (* the peak is read before any oracle work allocates *)
      let peak = vm_hwm_mb () in
      let best = fastest inp lat in
      Out_channel.with_open_bin (Filename.concat !inputs "latency_ms.txt") (fun oc ->
          Array.iteri (fun i l -> Printf.fprintf oc "%d\t%.6f\n" (group_of inp.ops.(i)) l) lat);
      fresh_parity st inp;
      [ ("setup_s", ms_of wall /. 1e3);
        ("peak_rss_mb", peak);
        ("op_p50_ms", quantile best 0.5);
        ("op_p75_ms", quantile best 0.75);
        ("ops_per_s", float_of_int inp.groups /. (Array.fold_left ( +. ) 0. best /. 1e3)) ]
    end
    else run_traced inp ~trace_out:(if !trace_out = "" then None else Some !trace_out)
  in
  let failed = !fail_count in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (failed = 0 && !problems = []));
            ("attempted", Json.Int n_ops);
            ("failed", Json.Int (min failed n_ops));
            ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) metrics));
            ("digest", Json.Str (Digest.to_hex !digest)) ]))
