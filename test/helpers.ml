(* Shared test helpers. *)

open Slice_workloads

let load ?container_classes src =
  Slice_front.Frontend.load_exn ?container_classes ~file:"test.tj" src

let load_err src : string =
  match Slice_front.Frontend.load ~file:"test.tj" src with
  | Ok _ -> Alcotest.fail "expected a frontend error"
  | Error e -> e.Slice_front.Frontend.err_msg

(* Run a TJ program and return its printed lines; fail the test on error. *)
let run_ok ?(args = []) ?(streams = []) src : string list =
  let p = load src in
  let o =
    Slice_interp.Interp.run
      { Slice_interp.Interp.default_config with args; streams }
      p
  in
  match o.Slice_interp.Interp.result with
  | Ok () -> o.Slice_interp.Interp.output
  | Error f ->
    Alcotest.failf "program failed: %s"
      (Format.asprintf "%a" Slice_interp.Interp.pp_failure f)

(* Run and return the failure kind; fail the test if the program succeeds. *)
let run_fail ?(args = []) ?(streams = []) src : Slice_interp.Interp.failure =
  let p = load src in
  let o =
    Slice_interp.Interp.run
      { Slice_interp.Interp.default_config with args; streams }
      p
  in
  match o.Slice_interp.Interp.result with
  | Error f -> f
  | Ok () -> Alcotest.fail "expected the program to fail"

let analysis ?obj_sens src = Slice_core.Engine.analyze ?obj_sens (load src)

(* The pipeline over the reference points-to solver: the oracle the
   product's bitset solver is checked against. *)
let reference_analysis ?(obj_sens = true) (p : Slice_ir.Program.t) =
  let module A = Slice_pta.Andersen in
  let opts = if obj_sens then A.default_opts else A.no_obj_sens_opts in
  Slice_core.Engine.analyze_with_pta ~obj_sens
    (A.of_reference (A.Reference.analyze ~opts p))
    p

(* A main wrapper for single-expression programs. *)
let expr_main body = Printf.sprintf "void main(String[] args) {\n%s\n}\n" body

let check_lines = Alcotest.(check (list string))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let line_of = Runtime_lib.line_of
