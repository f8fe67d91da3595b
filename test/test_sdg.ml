(* SDG construction tests: edge classification (the heart of thin slicing),
   heap dependence wiring, parameter wiring, and control dependences. *)

open Slice_core
open Slice_workloads
open Helpers

let edges_of_kind (g : Sdg.t) (n : Sdg.node) (k : Sdg.edge_kind) =
  List.filter (fun (_, kind) -> kind = k) (Sdg.deps g n)

let node_line g n = (Sdg.node_loc g n).Slice_ir.Loc.line

(* Figure 2/3: for the seed v = z.f,
   - the producer-heap edge goes to the store w.f = y,
   - the base-pointer edge goes to the def of z,
   - the control edge goes to the conditional. *)
let test_fig2_edge_classes () =
  let src = Paper_figures.fig2 in
  let a = analysis src in
  let g = a.Engine.sdg in
  let seed_line = line_of ~src ~pattern:Paper_figures.fig2_seed in
  let seeds = Engine.seeds_at_line_exn ~filter:Engine.Only_loads a seed_line in
  Alcotest.(check int) "one load node" 1 (List.length seeds);
  let seed = List.hd seeds in
  let heap = edges_of_kind g seed Sdg.Producer_heap in
  Alcotest.(check int) "one heap producer" 1 (List.length heap);
  Alcotest.(check int) "heap producer is the store"
    (line_of ~src ~pattern:"w.f = y;")
    (node_line g (fst (List.hd heap)));
  let base = edges_of_kind g seed Sdg.Base_pointer in
  Alcotest.(check int) "one base pointer" 1 (List.length base);
  Alcotest.(check int) "base pointer is z's def"
    (line_of ~src ~pattern:"A z = x;")
    (node_line g (fst (List.hd base)));
  let ctl = edges_of_kind g seed Sdg.Control in
  Alcotest.(check int) "one control dep" 1 (List.length ctl);
  Alcotest.(check int) "control dep is the conditional"
    (line_of ~src ~pattern:"if (w == z)")
    (node_line g (fst (List.hd ctl)))

let test_param_and_return_wiring () =
  let src =
    {|int inc(int x) { return x + 1; }
void main(String[] args) {
  int a = 41;
  int b = inc(a);
  print(itoa(b));
}|}
  in
  let a = analysis src in
  let g = a.Engine.sdg in
  (* the print's argument chain must reach 41 through the call *)
  let seed_line = line_of ~src ~pattern:"print(itoa(b));" in
  let lines =
    Slicer.slice_line_numbers g
      ~seeds:(Engine.seeds_at_line_exn a seed_line)
      Slicer.Thin
  in
  Alcotest.(check bool) "return stmt in slice" true
    (List.mem (line_of ~src ~pattern:"return x + 1;") lines);
  Alcotest.(check bool) "actual arg def in slice" true
    (List.mem (line_of ~src ~pattern:"int a = 41;") lines)

let test_heap_field_dependence () =
  let src =
    {|class Cell { int v; }
void main(String[] args) {
  Cell c = new Cell();
  c.v = 7;
  Cell d = new Cell();
  d.v = 8;
  print(itoa(c.v));
}|}
  in
  let a = analysis src in
  let g = a.Engine.sdg in
  let seed_line = line_of ~src ~pattern:"print(itoa(c.v));" in
  let lines =
    Slicer.slice_line_numbers g
      ~seeds:(Engine.seeds_at_line_exn a seed_line)
      Slicer.Thin
  in
  Alcotest.(check bool) "store to c included" true
    (List.mem (line_of ~src ~pattern:"c.v = 7;") lines);
  (* allocation-site sensitivity keeps the other cell's store out *)
  Alcotest.(check bool) "store to d excluded" false
    (List.mem (line_of ~src ~pattern:"d.v = 8;") lines)

let test_array_length_dependence () =
  let src =
    {|void main(String[] args) {
  int n = 3 + 4;
  int[] a = new int[n];
  print(itoa(a.length));
}|}
  in
  let a = analysis src in
  let g = a.Engine.sdg in
  let seed_line = line_of ~src ~pattern:"print(itoa(a.length));" in
  let lines =
    Slicer.slice_line_numbers g
      ~seeds:(Engine.seeds_at_line_exn a seed_line)
      Slicer.Thin
  in
  Alcotest.(check bool) "allocation in slice" true
    (List.mem (line_of ~src ~pattern:"new int[n]") lines);
  Alcotest.(check bool) "length source in slice" true
    (List.mem (line_of ~src ~pattern:"int n = 3 + 4;") lines)

let test_control_dependences () =
  let src =
    {|void main(String[] args) {
  int x = parseInt(args[0]);
  int y = 0;
  if (x > 0) {
    y = 1;
  }
  print(itoa(y));
}|}
  in
  let a = analysis src in
  let g = a.Engine.sdg in
  let assign_line = line_of ~src ~pattern:"y = 1;" in
  let nodes = Sdg.nodes_at_line g ~file:None ~line:assign_line in
  let has_ctl_to_if =
    List.exists
      (fun n ->
        List.exists
          (fun (dep, kind) ->
            kind = Sdg.Control
            && node_line g dep = line_of ~src ~pattern:"if (x > 0)")
          (Sdg.deps g n))
      nodes
  in
  Alcotest.(check bool) "y=1 control-dependent on the if" true has_ctl_to_if

let test_entry_control_to_call_site () =
  let src =
    {|void helper() { print("h"); }
void main(String[] args) { helper(); }|}
  in
  let a = analysis src in
  let g = a.Engine.sdg in
  (* the print inside helper is control-dependent on main's call site *)
  let print_line = line_of ~src ~pattern:{|print("h");|} in
  let call_line = line_of ~src ~pattern:"{ helper(); }" in
  let nodes = Sdg.nodes_at_line g ~file:None ~line:print_line in
  let ok =
    List.exists
      (fun n ->
        List.exists
          (fun (dep, kind) -> kind = Sdg.Control && node_line g dep = call_line)
          (Sdg.deps g n))
      nodes
  in
  Alcotest.(check bool) "callee governed by call site" true ok

let test_scalar_statement_count () =
  let a = analysis Paper_figures.fig2 in
  let g = a.Engine.sdg in
  Alcotest.(check bool) "some statements" true (Sdg.num_scalar_statements g > 5);
  Alcotest.(check bool) "nodes >= statements" true
    (Sdg.num_nodes g >= Sdg.num_scalar_statements g)

let test_dot_export () =
  let a = analysis Paper_figures.fig2 in
  let dot = Sdg.to_dot a.Engine.sdg in
  Alcotest.(check bool) "digraph header" true
    (String.length dot > 20 && String.sub dot 0 7 = "digraph")

(* Freeze fills the CSR rows from the build's edge buffer.  Witness
   paths and report ranks depend on the order of edges within a row, so
   an order-sensitive digest of every row, in both directions, is pinned
   for each paper workload with and without object sensitivity.  The
   expected values were recorded from the list-adjacency build that
   preceded the edge buffer: (workload, obj_sens, nodes, edges, deps
   digest, uses digest).  Also checks that the list accessors agree with
   the iterators and that a second freeze changes nothing. *)
let pinned_adjacency =
  [ ("nanoxml", true, 1114, 2477, 1884026939357251416, -4188772949589318494);
    ("nanoxml", false, 811, 1911, 2969100714447018822, 2656468480119776664);
    ("jtopas", true, 495, 1055, -4410654799561399894, -4176936496644739228);
    ("jtopas", false, 491, 1055, 375900348836054568, -3484042901006491448);
    ("ant", true, 838, 1747, 2509745274908794083, -1343988989635710421);
    ("ant", false, 593, 1285, 30321544968854414, -4379632756864495000);
    ("xmlsec", true, 195, 353, 3613776943932854278, -1449607288175335000);
    ("xmlsec", false, 195, 353, 3613776943932854278, -1449607288175335000);
    ("mtrt", true, 468, 1069, 1021217854999532436, 3626185308234333512);
    ("mtrt", false, 466, 1069, -2431892695158539870, -206580773238427322);
    ("jess", true, 514, 1100, 1522758702183780653, 305875868054022579);
    ("jess", false, 448, 984, 1142966817763655762, -1364285049018891214);
    ("javac", true, 1078, 2470, -1635264659779543823, 1530412487594580741);
    ("javac", false, 1074, 2470, 367823266627674332, -1904029417164043114);
    ("jack", true, 1070, 2295, -3881667271380804658, -1433994734375908092);
    ("jack", false, 761, 1717, -1351405397810502006, -1357024730434894996);
    ("pipeline-32", true, 9479, 20998, -855030806239502479, -3767219958779547647);
    ("pipeline-32", false, 3740, 8784, 2960740941207910379, -1451625914317383867) ]

(* The [sdg_checksum] fold of bench/main.ml, over either direction. *)
let adjacency_digest iter (g : Sdg.t) : int =
  let h = ref 0 in
  for n = 0 to Sdg.num_nodes g - 1 do
    iter g n (fun m k ->
        h := (!h * 31) + (n * 16381) + (m * 8191) + Sdg.edge_kind_tag k)
  done;
  !h

let test_freeze_preserves_adjacency () =
  List.iter
    (fun (name, obj_sens, nodes, edges, deps_digest, uses_digest) ->
      let src = List.assoc name Suites.paper_workloads in
      let g = (Engine.of_source ~obj_sens ~file:(name ^ ".tj") src).Engine.sdg in
      let what s = Printf.sprintf "%s obj_sens=%b: %s" name obj_sens s in
      Alcotest.(check int) (what "nodes") nodes (Sdg.num_nodes g);
      Alcotest.(check int) (what "edges") edges (Sdg.num_edges g);
      Alcotest.(check int) (what "deps rows") deps_digest
        (adjacency_digest Sdg.deps_iter g);
      Alcotest.(check int) (what "uses rows") uses_digest
        (adjacency_digest Sdg.uses_iter g);
      let collect iter i =
        let acc = ref [] in
        iter g i (fun d k -> acc := (d, k) :: !acc);
        List.rev !acc
      in
      for i = 0 to Sdg.num_nodes g - 1 do
        if Sdg.deps g i <> collect Sdg.deps_iter i
           || Sdg.uses g i <> collect Sdg.uses_iter i
        then Alcotest.failf "%s" (what "list row differs from iterator")
      done;
      Sdg.freeze g;
      Alcotest.(check int) (what "refreeze keeps rows") deps_digest
        (adjacency_digest Sdg.deps_iter g))
    pinned_adjacency

let test_freeze_counts_csr_telemetry () =
  let (), snap =
    Slice_obs.scoped (fun () ->
        let p = load Paper_figures.fig2 in
        let g = Sdg.build p (Slice_pta.Andersen.analyze p) in
        Sdg.freeze g)
  in
  let counter k = List.assoc_opt k snap.Slice_obs.snap_counters in
  (match counter "sdg.csr_nodes" with
  | Some v -> Alcotest.(check bool) "csr_nodes > 0" true (v > 0)
  | None -> Alcotest.fail "no sdg.csr_nodes counter");
  (match counter "sdg.csr_edges" with
  | Some v -> Alcotest.(check bool) "csr_edges > 0" true (v > 0)
  | None -> Alcotest.fail "no sdg.csr_edges counter");
  Alcotest.(check bool) "sdg.freeze span recorded" true
    (List.mem_assoc "sdg.freeze" (Slice_obs.span_totals snap))

(* Regression for the heap-counter skew: [sdg.heap_pairs_emitted] must
   equal the number of distinct Producer_heap edges in the graph (the
   bump and the [add_edge] call now share one guard over the
   deduplicated bitset rows), and [considered >= emitted] always. *)
let test_heap_counters_exact () =
  List.iter
    (fun (name, src) ->
      let a, snap = Slice_obs.scoped (fun () -> analysis src) in
      let g = a.Engine.sdg in
      let heap_edges = ref 0 in
      for n = 0 to Sdg.num_nodes g - 1 do
        Sdg.deps_iter g n (fun _ k ->
            if k = Sdg.Producer_heap then incr heap_edges)
      done;
      let counter k =
        match List.assoc_opt k snap.Slice_obs.snap_counters with
        | Some v -> v
        | None -> 0
      in
      let emitted = counter "sdg.heap_pairs_emitted" in
      let considered = counter "sdg.heap_pairs_considered" in
      Alcotest.(check int)
        (name ^ ": emitted == distinct Producer_heap edges")
        !heap_edges emitted;
      Alcotest.(check bool)
        (name ^ ": considered >= emitted")
        true (considered >= emitted))
    [ ("fig1", Paper_figures.fig1); ("fig2", Paper_figures.fig2);
      ("nanoxml", Prog_nanoxml.base); ("javac", Prog_javac.base) ]

let suite =
  [ Alcotest.test_case "fig2 edge classes" `Quick test_fig2_edge_classes;
    Alcotest.test_case "param/return wiring" `Quick test_param_and_return_wiring;
    Alcotest.test_case "heap field dependence" `Quick test_heap_field_dependence;
    Alcotest.test_case "array length dependence" `Quick test_array_length_dependence;
    Alcotest.test_case "control dependences" `Quick test_control_dependences;
    Alcotest.test_case "entry control to call site" `Quick test_entry_control_to_call_site;
    Alcotest.test_case "scalar statement count" `Quick test_scalar_statement_count;
    Alcotest.test_case "dot export" `Quick test_dot_export;
    Alcotest.test_case "freeze preserves adjacency" `Quick
      test_freeze_preserves_adjacency;
    Alcotest.test_case "freeze csr telemetry" `Quick
      test_freeze_counts_csr_telemetry;
    Alcotest.test_case "heap counters exact" `Quick test_heap_counters_exact ]
