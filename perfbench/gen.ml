(* Input generation for the serve-path benchmark.

   Runs in its own process, before the measured one, so the measured
   process never holds the generator's state (at 10^5 statements the
   generator's calibration loads would otherwise sit in its heap and
   inflate the peak-RSS reading).  Writes, under [--out DIR]:

   - [src/<file>]: every program source text;
   - [setup.jsonl]: the serve [load] requests of one set-up, one line
     per program;
   - [ops.tsv]: the fixed, seeded operation script, one operation per
     line (see [measure.ml] for the format);
   - [meta.tsv]: [key<TAB>value] lines (set-up repeats, distinct
     operations per round, what happens between rounds, programs).

   Usage: gen.exe --workload W --seed N --seconds S --out DIR --cache DIR *)

open Slice_workloads
module Json = Slice_obs.Json
module Serve = Slice_serve.Serve

(* Operations per run second, per workload.  Runs are sized by sample
   count, not by time: the script length is [seconds * rate] rounded up
   to whole rounds, fixed before anything is measured, so the same seed
   and run length always send the same operations.  At [seconds = 10],
   on a 2-vCPU x86-64 host in release profile, a run measures 10-20 s of
   operations: more would not fit the time all runs of the benchmark
   have. *)
let ops_per_second = function
  | "paper-tasks" -> 5000
  | "query-1e5" -> 16
  | "edit-body-1e4" -> 36
  | "edit-summary-1e4" -> 16
  | w -> failwith ("unknown workload " ^ w)

(* Distinct operations per workload.  A script is rounds, each of which
   sends every distinct operation once; an operation's latency is the
   fastest of its repeats (see [measure.ml]), and the percentiles are
   over distinct operations, so at least 40 of them leave 10 beyond the
   75th percentile.  paper-tasks has its own count: the requests of one
   round of the paper's tasks. *)
let groups = function
  | "query-1e5" | "edit-summary-1e4" -> 40
  | "edit-body-1e4" -> 45
  | w -> failwith ("no fixed group count for " ^ w)

(* At least three repeats of every operation. *)
let min_rounds = 3

let rounds ~groups ~n_ops = max min_rounds ((n_ops + groups - 1) / groups)

(* What a run does between two rounds (see [reset] in [measure.ml]):
   the edit workloads start every round from a fresh set-up, query-1e5
   from a collected heap; a paper-tasks round takes ≈ 30 ms and leaves
   nothing behind. *)
let reset = function
  | "paper-tasks" -> "keep"
  | "query-1e5" -> "collect"
  | _ -> "reload"

(* Set-ups per run: [setup_s] is the median over these.  Small set-ups
   vary by up to 50% within one process (the first, cold one is the
   slowest), so they are repeated more; a 10^5 set-up takes about 5 s. *)
let setups = function
  | "paper-tasks" -> 15
  | "query-1e5" -> 3
  | _ -> 11

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let load_line ~id (file, src) =
  Json.to_string
    (Json.Obj
       [ ("id", Json.Int id);
         ("method", Json.Str "load");
         ("params", Json.Obj [ ("file", Json.Str file); ("source", Json.Str src) ]) ])

let request ~id ~meth params =
  Json.to_string
    (Json.Obj
       [ ("id", Json.Int id); ("method", Json.Str meth); ("params", Json.Obj params) ])

let lines_of src = Array.of_list (String.split_on_char '\n' src)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let replace_last ~sub ~by s =
  let m = String.length sub in
  let rec find i = if String.sub s i m = sub then i else find (i - 1) in
  let i = find (String.length s - m) in
  String.sub s 0 i ^ by ^ String.sub s (i + m) (String.length s - i - m)

let shuffle rng a =
  for j = Array.length a - 1 downto 1 do
    let k = Random.State.int rng (j + 1) in
    let t = a.(j) in
    a.(j) <- a.(k);
    a.(k) <- t
  done

(* 1-based line numbers of the statements inside the generated part
   functions ([int partK(...) { ... }]), header and closing brace
   excluded: every such line holds at least one countable statement. *)
let part_body_lines (lines : string array) : int list =
  let acc = ref [] and inside = ref false in
  Array.iteri
    (fun i l ->
      if starts_with ~prefix:"int part" l then inside := true
      else if !inside && l = "}" then inside := false
      else if !inside then acc := (i + 1) :: !acc)
    lines;
  List.rev !acc

(* ---- paper-tasks ---------------------------------------------------- *)

(* The thin slice (in [mode]) from [line], as line numbers; used only to
   plan the explain requests, never to check an answer. *)
let slice_lines (h : Slice_core.Engine.handle) ~line ~mode =
  let open Slice_core in
  let a = h.Engine.h_analysis in
  Slicer.locs_to_line_numbers
    (Slicer.nodes_to_lines a.Engine.sdg
       (Slicer.slice a.Engine.sdg ~seeds:(Engine.seeds_at_line_exn a line) mode))

(* The requests of one task, derived from its record and the paper's
   procedure (section 6.1): the user takes a thin slice from the seed and
   one from each governing conditional noticed along the way (the task's
   bridges), the traditional slicer is run from the same lines for
   comparison, the user reads the thin slice as a ranked report, asks
   why each desired statement is in the slice, and expands aliasing as
   often as the task's alias level says.  Per task with [b] bridges,
   [d] desired lines and alias level [k] that is [1 + b] thin slices,
   [1 + b] traditional slices, one report, [d] explains and [k] expands.

   Each request carries its check.  A desired line is assigned to the
   first of the task's slice lines (seed, then bridges) whose thin slice
   holds it; the thin and traditional slices and the report from that
   line must contain it, and an explain of it from that line must return
   a witness path.  A desired line no slice holds is assigned to the
   seed, so the check fails where the run can see it. *)
let task_requests (t : Task.t) ~key ~(h : Slice_core.Engine.handle) =
  let line p = Runtime_lib.line_of ~src:t.Task.src ~pattern:p in
  let thin = Slice_core.Slicer.mode_to_string (Task.thin_mode t) in
  let seed = line t.Task.seed_pattern in
  let from = seed :: List.map line t.Task.bridge_patterns in
  let desired = List.map line t.Task.desired_patterns in
  let slices = List.map (fun l -> (l, slice_lines h ~line:l ~mode:(Task.thin_mode t))) from in
  let home d =
    match List.find_opt (fun (_, ls) -> List.mem d ls) slices with Some (l, _) -> l | None -> seed
  in
  let assigned l = List.filter (fun d -> home d = l) desired in
  let check l =
    match assigned l with
    | [] -> "-"
    | ds -> "desired=" ^ String.concat "+" (List.map string_of_int ds)
  in
  let p = [ ("program", Json.Str key) ] in
  List.map (fun l -> (check l, ("slice", p @ [ ("line", Json.Int l); ("mode", Json.Str thin) ]))) from
  @ List.map (fun l -> (check l, ("slice", p @ [ ("line", Json.Int l); ("mode", Json.Str "trad") ]))) from
  @ [ (check seed, ("report", p @ [ ("line", Json.Int seed); ("mode", Json.Str thin) ])) ]
  @ List.map
      (fun d ->
        ( "member",
          ("explain", p @ [ ("seed", Json.Int (home d)); ("line", Json.Int d); ("mode", Json.Str thin) ]) ))
      desired
  @ List.init t.Task.alias_level (fun _ -> ("-", ("expand", p @ [ ("line", Json.Int seed) ])))

(* The 35 tasks of the paper's Tables 2 and 3, over their 17 distinct
   programs.  Each program is written once, named after the first task
   that uses it.  A run sends whole rounds: every request of every task
   once per round, each round in a seeded order, so no two runs differ
   in how many requests of a kind they send. *)
let paper_tasks ~rng ~n_ops ~out =
  let tasks = Sir_suite.tasks @ Casts_suite.tasks in
  let programs = Hashtbl.create 32 and order = ref [] in
  List.iter
    (fun (t : Task.t) ->
      if not (Hashtbl.mem programs t.Task.src) then begin
        let file = t.Task.id ^ ".tj" in
        let h = Slice_core.Engine.load [ (file, t.Task.src) ] in
        Hashtbl.replace programs t.Task.src (file, h);
        order := (file, t.Task.src) :: !order
      end)
    tasks;
  let round =
    Array.of_list
      (List.concat_map
         (fun (t : Task.t) ->
           let file, h = Hashtbl.find programs t.Task.src in
           task_requests t ~key:(Serve.program_key ~file t.Task.src) ~h)
         tasks)
  in
  let n = Array.length round in
  let buf = Buffer.create (1 lsl 20) in
  let id = ref 0 in
  for _ = 1 to rounds ~groups:n ~n_ops do
    let r = Array.mapi (fun g x -> (g, x)) round in
    shuffle rng r;
    Array.iter
      (fun (g, (check, (meth, params))) ->
        incr id;
        (* one request in 50 is marked for the reference slicer, which
           re-walks the marked slices in the traced run *)
        let check = if Random.State.int rng 50 = 0 then check ^ ";ref" else check in
        Printf.bprintf buf "q\t%d\t%s\t%s\n" g check (request ~id:!id ~meth params))
      r
  done;
  write_file (Filename.concat out "ops.tsv") (Buffer.contents buf);
  (List.rev !order, n)

(* ---- generated programs ------------------------------------------------ *)

(* The generated programs are fixed: the benchmark seed draws only the
   operation script.  Programs drawn per seed differ by a few percent in
   size and block mix, which showed up as run-to-run spread of the edit
   latencies (body-edit p50 spread 14% over five seeds).  A program is
   generated once per checkout and kept in [cache]. *)
let program_seed = 1

let scaled_program ~cache ~stmts =
  let path = Filename.concat cache (Printf.sprintf "scaled-%d.tj" stmts) in
  let src =
    if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all
    else begin
      let src = (Slice_fuzz.Gen_tj.generate_scaled ~seed:program_seed ~stmts).Slice_fuzz.Gen_tj.sc_src in
      let tmp = path ^ ".tmp" in
      write_file tmp src;
      Sys.rename tmp path;
      src
    end
  in
  (* the seed line: the trailing [print(itoa(acc))] of main *)
  let lines = lines_of src in
  let seed_line = ref 0 in
  Array.iteri (fun i l -> if l = "  print(itoa(acc));" then seed_line := i + 1) lines;
  (src, !seed_line)

(* ---- query-1e5 ------------------------------------------------------- *)

let query_1e5 ~cache ~rng ~n_ops ~out =
  let src, _ = scaled_program ~cache ~stmts:100_000 in
  let file = "scaled.tj" in
  let key = Serve.program_key ~file src in
  (* the middle line of each of [groups] equal strata of the part
     bodies, the same for every seed: every run slices across the whole
     program, and a seed draws only the order of each round *)
  let groups = groups "query-1e5" in
  let body = Array.of_list (part_body_lines (lines_of src)) in
  let lines = Array.init groups (fun k -> body.((((2 * k) + 1) * Array.length body) / (2 * groups))) in
  let buf = Buffer.create (1 lsl 16) in
  let id = ref 0 in
  for _ = 1 to rounds ~groups ~n_ops do
    let order = Array.init groups Fun.id in
    shuffle rng order;
    Array.iter
      (fun k ->
        let line = lines.(k) in
        let check = Printf.sprintf "self=%d" line in
        let check = if Random.State.int rng 25 = 0 then check ^ ";ref" else check in
        incr id;
        Printf.bprintf buf "q\t%d\t%s\t%s\n" k check
          (request ~id:!id ~meth:"slice"
             [ ("program", Json.Str key); ("line", Json.Int line); ("mode", Json.Str "thin") ]))
      order
  done;
  write_file (Filename.concat out "ops.tsv") (Buffer.contents buf);
  ([ (file, src) ], groups)

(* ---- edit-*-1e4 ------------------------------------------------------- *)

(* One edit kind per workload, so each percentile is taken over one
   update tier:
   - body: retune a pointer-free constant ([cur.fi = a % 1001;]) — the
     constraint summary is unchanged, so the update patches in place;
   - summary: swap an allocation class ([new S<f>_0()] <-> [_1()]) —
     the points-to summary moves, so the update re-solves;
   Every edit is followed by one thin slice at the program's seed line
   (the trailing [print(itoa(acc))]). *)
let edit_1e4 ~kind ~cache ~rng ~n_ops ~out =
  let src, seed_line = scaled_program ~cache ~stmts:10_000 in
  let lines = lines_of src in
  let find pred =
    let acc = ref [] in
    Array.iteri (fun i l -> if pred l then acc := (i + 1) :: !acc) lines;
    Array.of_list (List.rev !acc)
  in
  let buf = Buffer.create (1 lsl 16) in
  let emit g lineno text = Printf.bprintf buf "e\t%s\t%d\t%d\t%d\t%s\n" kind g lineno seed_line text in
  (* [groups] sites spread evenly over the program, the same for every
     seed: the seed draws the order of the edits and their constants,
     not which methods a run edits *)
  let sites pred =
    let all = find pred and groups = groups ("edit-" ^ kind ^ "-1e4") in
    if Array.length all < groups then failwith "fewer edit sites than groups";
    Array.init groups (fun k -> all.((k * Array.length all) / groups))
  in
  (* the measured process reloads the original program before every
     round, and a round edits each site once: every edit rewrites an
     original line *)
  let each_round sites f =
    for _ = 1 to rounds ~groups:(Array.length sites) ~n_ops do
      let order = Array.init (Array.length sites) Fun.id in
      shuffle rng order;
      Array.iter (fun g -> f g sites.(g)) order
    done;
    Array.length sites
  in
  let groups =
    match kind with
    | "body" ->
      (* a new constant, never the original 1001 *)
      each_round (sites (fun l -> l = "  cur.fi = a % 1001;")) (fun g l ->
          emit g l (Printf.sprintf "  cur.fi = a %% %d;" (1002 + Random.State.int rng 97)))
    | "summary" ->
      each_round (sites (fun l -> contains ~sub:"= new S" l)) (fun g l ->
          let s = lines.(l - 1) in
          emit g l
            (if contains ~sub:"_0();" s then replace_last ~sub:"_0();" ~by:"_1();" s
             else replace_last ~sub:"_1();" ~by:"_0();" s))
    | k -> failwith ("unknown edit kind " ^ k)
  in
  write_file (Filename.concat out "ops.tsv") (Buffer.contents buf);
  ([ ("scaled.tj", src) ], groups)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and out = ref "" and cache = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_int seconds, "S");
      ("--out", Arg.Set_string out, "DIR");
      ("--cache", Arg.Set_string cache, "DIR") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "gen.exe --workload W --seed N --seconds S --out DIR --cache DIR";
  let w = !workload and out = !out and cache = !cache in
  let n_ops = max 1 (ops_per_second w * !seconds) in
  (* the workload name is folded into the seed so that two workloads
     run with the same seed draw unrelated streams *)
  let rng = Random.State.make [| !seed; Hashtbl.hash w |] in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let src_dir = Filename.concat out "src" in
  if not (Sys.file_exists src_dir) then Sys.mkdir src_dir 0o755;
  let progs, groups =
    match w with
    | "paper-tasks" -> paper_tasks ~rng ~n_ops ~out
    | "query-1e5" -> query_1e5 ~cache ~rng ~n_ops ~out
    | "edit-body-1e4" -> edit_1e4 ~kind:"body" ~cache ~rng ~n_ops ~out
    | "edit-summary-1e4" -> edit_1e4 ~kind:"summary" ~cache ~rng ~n_ops ~out
    | _ -> failwith ("unknown workload " ^ w)
  in
  List.iter (fun (file, src) -> write_file (Filename.concat src_dir file) src) progs;
  write_file
    (Filename.concat out "setup.jsonl")
    (String.concat "" (List.mapi (fun i p -> load_line ~id:(-1 - i) p ^ "\n") progs));
  write_file
    (Filename.concat out "meta.tsv")
    (Printf.sprintf "setups\t%d\ngroups\t%d\nreset\t%s\nprograms\t%d\n" (setups w) groups
       (reset w) (List.length progs))
