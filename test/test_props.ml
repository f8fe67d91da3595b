(* Property-based tests (qcheck):
   - the interpreter agrees with a reference evaluator on randomly
     generated arithmetic/boolean expressions;
   - generated pipeline programs run, and their slices respect the
     thin <= traditional ordering;
   - points-to stays sound on generated programs (slice of the printed
     value includes the statements that dynamically produced it). *)

open Slice_workloads

module IntSet = Set.Make (Int)

(* ---- a tiny expression AST with a reference evaluator ---- *)

type expr =
  | Num of int
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr    (* denominator forced nonzero by construction *)
  | Neg of expr
  | If of bexpr * expr * expr

and bexpr =
  | Lt of expr * expr
  | Eq of expr * expr
  | And of bexpr * bexpr
  | Or of bexpr * bexpr
  | Not of bexpr

let rec eval = function
  | Num n -> n
  | Add (a, b) -> eval a + eval b
  | Sub (a, b) -> eval a - eval b
  | Mul (a, b) -> eval a * eval b
  | Div (a, b) ->
    let d = eval b in
    if d = 0 then 0 else eval a / d
  | Neg a -> -eval a
  | If (c, t, e) -> if beval c then eval t else eval e

and beval = function
  | Lt (a, b) -> eval a < eval b
  | Eq (a, b) -> eval a = eval b
  | And (a, b) -> beval a && beval b
  | Or (a, b) -> beval a || beval b
  | Not a -> not (beval a)

(* Render to TJ.  [If] becomes a helper-function call so that expressions
   stay expressions. *)
let rec to_tj = function
  | Num n -> if n < 0 then Printf.sprintf "(0 - %d)" (-n) else string_of_int n
  | Add (a, b) -> Printf.sprintf "(%s + %s)" (to_tj a) (to_tj b)
  | Sub (a, b) -> Printf.sprintf "(%s - %s)" (to_tj a) (to_tj b)
  | Mul (a, b) -> Printf.sprintf "(%s * %s)" (to_tj a) (to_tj b)
  | Div (a, b) -> Printf.sprintf "safeDiv(%s, %s)" (to_tj a) (to_tj b)
  | Neg a -> Printf.sprintf "(-%s)" (to_tj a)
  | If (c, t, e) ->
    Printf.sprintf "choose(%s, %s, %s)" (to_btj c) (to_tj t) (to_tj e)

and to_btj = function
  | Lt (a, b) -> Printf.sprintf "(%s < %s)" (to_tj a) (to_tj b)
  | Eq (a, b) -> Printf.sprintf "(%s == %s)" (to_tj a) (to_tj b)
  | And (a, b) -> Printf.sprintf "(%s && %s)" (to_btj a) (to_btj b)
  | Or (a, b) -> Printf.sprintf "(%s || %s)" (to_btj a) (to_btj b)
  | Not a -> Printf.sprintf "(!%s)" (to_btj a)

let helpers_tj =
  "int safeDiv(int a, int b) { if (b == 0) { return 0; } return a / b; }\n\
   int choose(boolean c, int t, int e) { if (c) { return t; } return e; }\n"

let gen_expr : expr QCheck2.Gen.t =
  let open QCheck2.Gen in
  sized_size (0 -- 6) @@ fix (fun self n ->
      let num = map (fun k -> Num k) (-50 -- 50) in
      if n <= 0 then num
      else
        let sub = self (n / 2) in
        let rec gen_bexpr depth =
          if depth <= 0 then map2 (fun a b -> Lt (a, b)) sub sub
          else
            oneof
              [ map2 (fun a b -> Lt (a, b)) sub sub;
                map2 (fun a b -> Eq (a, b)) sub sub;
                map2 (fun a b -> And (a, b)) (gen_bexpr (depth - 1)) (gen_bexpr (depth - 1));
                map2 (fun a b -> Or (a, b)) (gen_bexpr (depth - 1)) (gen_bexpr (depth - 1));
                map (fun a -> Not a) (gen_bexpr (depth - 1)) ]
        in
        oneof
          [ num;
            map2 (fun a b -> Add (a, b)) sub sub;
            map2 (fun a b -> Sub (a, b)) sub sub;
            map2 (fun a b -> Mul (a, b)) sub sub;
            map2 (fun a b -> Div (a, b)) sub sub;
            map (fun a -> Neg a) sub;
            map3 (fun c t e -> If (c, t, e)) (gen_bexpr 2) sub sub ])

let prop_interp_matches_reference =
  QCheck2.Test.make ~count:40 ~name:"interpreter agrees with reference evaluator"
    ~print:(fun e -> to_tj e) gen_expr
    (fun e ->
      let src =
        helpers_tj
        ^ Printf.sprintf "void main(String[] args) { print(itoa(%s)); }\n" (to_tj e)
      in
      match Helpers.run_ok src with
      | [ line ] -> line = string_of_int (eval e)
      | _ -> false)

let prop_pipeline_runs_and_slices =
  QCheck2.Test.make ~count:6 ~name:"pipelines run; thin <= traditional"
    QCheck2.Gen.(2 -- 10)
    (fun stages ->
      let src = Generators.pipeline_program ~stages in
      let p = Helpers.load src in
      let args, streams = Generators.pipeline_io in
      let o =
        Slice_interp.Interp.run
          { Slice_interp.Interp.default_config with args; streams }
          p
      in
      (match o.Slice_interp.Interp.result with
      | Ok () -> ()
      | Error f ->
        QCheck2.Test.fail_reportf "pipeline failed: %s"
          (Format.asprintf "%a" Slice_interp.Interp.pp_failure f));
      let a = Slice_core.Engine.analyze p in
      let line =
        Runtime_lib.line_of ~src ~pattern:Generators.pipeline_seed_pattern
      in
      let thin =
        Slice_core.Engine.slice_from_line a ~line Slice_core.Slicer.Thin
      in
      let trad =
        Slice_core.Engine.slice_from_line a ~line
          Slice_core.Slicer.Traditional_data
      in
      IntSet.subset (IntSet.of_list thin) (IntSet.of_list trad))

(* The slice-covers-execution property: the static thin slice of the final
   print must contain every line the dynamic thin slice saw — on programs
   with containers, loops, and string processing, this exercises heap
   dependences end to end. *)
let prop_static_covers_dynamic =
  QCheck2.Test.make ~count:5 ~name:"static thin slice covers dynamic thin slice"
    QCheck2.Gen.(2 -- 8)
    (fun stages ->
      let src = Generators.pipeline_program ~stages in
      let p = Helpers.load src in
      let args, streams = Generators.pipeline_io in
      let trace = Slice_interp.Dyntrace.create () in
      let _ =
        Slice_interp.Interp.run
          { Slice_interp.Interp.default_config with args; streams; trace = Some trace }
          p
      in
      let a = Slice_core.Engine.analyze p in
      let line =
        Runtime_lib.line_of ~src ~pattern:Generators.pipeline_seed_pattern
      in
      let static =
        Slice_core.Engine.slice_from_line a ~line Slice_core.Slicer.Thin
      in
      let tbl = Slice_ir.Program.build_stmt_table p in
      let seed_stmt =
        Hashtbl.fold
          (fun id si acc ->
            if
              (Slice_ir.Program.stmt_loc si).Slice_ir.Loc.line = line
              &&
              match si.Slice_ir.Program.s_site with
              | Slice_ir.Program.Site_instr
                  { Slice_ir.Instr.i_kind = Slice_ir.Instr.Call _; _ } ->
                true
              | _ -> false
            then Some id
            else acc)
          tbl None
      in
      match seed_stmt with
      | None -> QCheck2.Test.fail_report "no seed statement"
      | Some stmt -> (
        match Slice_interp.Dyntrace.dynamic_thin_slice trace stmt with
        | None -> QCheck2.Test.fail_report "seed not executed"
        | Some stmts ->
          List.for_all
            (fun s ->
              match Hashtbl.find_opt tbl s with
              | Some si ->
                let l = (Slice_ir.Program.stmt_loc si).Slice_ir.Loc.line in
                l = 0 || List.mem l static
              | None -> true)
            stmts))

(* ---- CSR walk parity against the Reference (seed) implementation ---- *)

(* Every workload of the BENCH suite; the canonical list lives in
   {!Slice_workloads.Suites} so bench and tests cannot drift apart. *)
let workload_programs = Suites.paper_workloads

let parity_modes =
  [ Slice_core.Slicer.Thin;
    Slice_core.Slicer.Thin_with_aliasing 1;
    Slice_core.Slicer.Thin_with_aliasing 2;
    Slice_core.Slicer.Traditional_data;
    Slice_core.Slicer.Traditional_full ]

(* First/middle/last user-visible statement nodes: representative seed
   sets for small, medium and whole-program-reaching slices. *)
let parity_seed_sets (g : Slice_core.Sdg.t) : Slice_core.Sdg.node list list =
  let countable = ref [] in
  for n = Slice_core.Sdg.num_nodes g - 1 downto 0 do
    if Slice_core.Sdg.node_countable g n then countable := n :: !countable
  done;
  match !countable with
  | [] -> []
  | nodes ->
    let arr = Array.of_list nodes in
    let k = Array.length arr in
    [ [ arr.(0) ]; [ arr.(k / 2) ]; [ arr.(k - 1) ];
      [ arr.(0); arr.(k / 2); arr.(k - 1) ] ]

(* Node-for-node agreement of the CSR walk with [Slicer.Reference] on one
   analysis, for every mode / seed set / direction, plus the line
   projection. *)
let check_parity ~(what : string) (g : Slice_core.Sdg.t) : unit =
  let open Slice_core in
  List.iter
    (fun seeds ->
      List.iter
        (fun mode ->
          let ctx = Printf.sprintf "%s %s" what (Slicer.mode_to_string mode) in
          Alcotest.(check (list int))
            (ctx ^ " backward")
            (Slicer.Reference.slice g ~seeds mode)
            (Slicer.slice g ~seeds mode);
          Alcotest.(check (list int))
            (ctx ^ " forward")
            (Slicer.Reference.forward_slice g ~seeds mode)
            (Slicer.forward_slice g ~seeds mode);
          Alcotest.(check bool)
            (ctx ^ " lines") true
            (Slicer.Reference.slice_lines g ~seeds mode
            = Slicer.slice_lines g ~seeds mode))
        parity_modes)
    (parity_seed_sets g)

let test_csr_parity_on_workloads () =
  List.iter
    (fun (name, src) ->
      let a = Slice_core.Engine.of_source ~file:(name ^ ".tj") src in
      check_parity ~what:name a.Slice_core.Engine.sdg)
    workload_programs

let prop_csr_parity_on_generated =
  QCheck2.Test.make ~count:8
    ~name:"CSR walk == Reference walk on generated pipelines"
    QCheck2.Gen.(2 -- 12)
    (fun stages ->
      let src = Generators.pipeline_program ~stages in
      let a = Slice_core.Engine.analyze (Helpers.load src) in
      let g = a.Slice_core.Engine.sdg in
      List.for_all
        (fun seeds ->
          List.for_all
            (fun mode ->
              Slice_core.Slicer.Reference.slice g ~seeds mode
              = Slice_core.Slicer.slice g ~seeds mode
              && Slice_core.Slicer.Reference.forward_slice g ~seeds mode
                 = Slice_core.Slicer.forward_slice g ~seeds mode)
            parity_modes)
        (parity_seed_sets g))

(* ---- parallel batch parity: slice_batch_par == slice_batch ---- *)

(* Up to [cap] seed lines spread across the program: every line with at
   least one statement node, thinned evenly so big workloads stay fast. *)
let batch_lines ?(cap = 10) (a : Slice_core.Engine.analysis) (src : string) :
    int list =
  let n_lines = List.length (String.split_on_char '\n' src) in
  let all = ref [] in
  for l = n_lines downto 1 do
    if Slice_core.Engine.seeds_at_line a l <> [] then all := l :: !all
  done;
  let all = Array.of_list !all in
  let k = Array.length all in
  if k <= cap then Array.to_list all
  else List.init cap (fun i -> all.(i * k / cap))

(* Sharding must be a pure scheduling decision: for every jobs count,
   mode and direction, the parallel batch returns line-for-line exactly
   the sequential batch.  [jobs:1] exercises the no-spawn degradation. *)
let check_par_parity ~(what : string) (a : Slice_core.Engine.analysis)
    (lines : int list) : unit =
  let open Slice_core in
  List.iter
    (fun mode ->
      List.iter
        (fun forward ->
          let seq = Engine.slice_batch ~forward a ~lines mode in
          List.iter
            (fun jobs ->
              let par = Engine.slice_batch_par ~forward ~jobs a ~lines mode in
              List.iter2
                (fun (l, s) (l', p) ->
                  let ctx =
                    Printf.sprintf "%s %s fwd=%b jobs=%d line=%d" what
                      (Slicer.mode_to_string mode) forward jobs l
                  in
                  Alcotest.(check int) (ctx ^ " order") l l';
                  Alcotest.(check (list int)) ctx s p)
                seq par)
            [ 1; 2; 4 ])
        [ false; true ])
    parity_modes

let test_par_batch_parity_on_workloads () =
  List.iter
    (fun (name, src) ->
      let a = Slice_core.Engine.of_source ~file:(name ^ ".tj") src in
      check_par_parity ~what:name a (batch_lines a src))
    workload_programs

let prop_par_batch_parity_on_generated =
  QCheck2.Test.make ~count:5
    ~name:"slice_batch_par == slice_batch on generated pipelines"
    QCheck2.Gen.(pair (2 -- 10) (2 -- 5))
    (fun (stages, jobs) ->
      let src = Generators.pipeline_program ~stages in
      let a = Slice_core.Engine.analyze (Helpers.load src) in
      let lines = batch_lines ~cap:6 a src in
      List.for_all
        (fun mode ->
          List.for_all
            (fun forward ->
              Slice_core.Engine.slice_batch_par ~forward ~jobs a ~lines mode
              = Slice_core.Engine.slice_batch ~forward a ~lines mode)
            [ false; true ])
        parity_modes)

(* Worker telemetry must AGGREGATE, not disappear (or race): the slicer
   counter totals of a parallel batch, after merge-back, equal the
   sequential batch's exactly — every walk bumps the same counters no
   matter which domain ran it. *)
let test_par_batch_telemetry_merges () =
  let open Slice_core in
  let name, src = List.nth workload_programs 0 in
  let a = Engine.of_source ~file:(name ^ ".tj") src in
  let lines = batch_lines a src in
  let slicer_counters snap =
    List.filter
      (fun (k, _) -> String.length k >= 7 && String.sub k 0 7 = "slicer.")
      snap.Slice_obs.snap_counters
  in
  let _, seq_snap =
    Slice_obs.scoped (fun () -> Engine.slice_batch a ~lines Slicer.Thin)
  in
  List.iter
    (fun jobs ->
      let _, par_snap =
        Slice_obs.scoped (fun () ->
            Engine.slice_batch_par ~jobs a ~lines Slicer.Thin)
      in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "slicer counter totals at jobs=%d" jobs)
        (slicer_counters seq_snap)
        (slicer_counters par_snap))
    [ 2; 4 ]

let suite =
  [ QCheck_alcotest.to_alcotest prop_interp_matches_reference;
    QCheck_alcotest.to_alcotest prop_pipeline_runs_and_slices;
    QCheck_alcotest.to_alcotest prop_static_covers_dynamic;
    Alcotest.test_case "CSR parity on the workload suite" `Quick
      test_csr_parity_on_workloads;
    QCheck_alcotest.to_alcotest prop_csr_parity_on_generated;
    Alcotest.test_case "parallel batch parity on the workload suite" `Quick
      test_par_batch_parity_on_workloads;
    QCheck_alcotest.to_alcotest prop_par_batch_parity_on_generated;
    Alcotest.test_case "parallel batch telemetry merges" `Quick
      test_par_batch_telemetry_merges ]
