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
  let nodes = Sdg.nodes_at_line g ~line:assign_line in
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
  let nodes = Sdg.nodes_at_line g ~line:print_line in
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

(* ----- line index and query columns vs the whole-graph scan ----- *)

(* The lookups the frozen columns and the line index replaced, kept here
   as the oracle: every answer comes from the statement table, node by
   node. *)
let scan_loc (g : Sdg.t) (n : Sdg.node) : Slice_ir.Loc.t =
  match Sdg.node_desc g n with
  | Sdg.Formal _ -> Slice_ir.Loc.none
  | Sdg.Stmt (_, s) | Sdg.Actual_in (_, s, _) -> (
    match Hashtbl.find_opt (Sdg.stmt_table g) s with
    | Some si -> Slice_ir.Program.stmt_loc si
    | None -> Slice_ir.Loc.none)

let scan_countable (g : Sdg.t) (n : Sdg.node) : bool =
  let open Slice_ir in
  match Sdg.node_desc g n with
  | Sdg.Formal _ -> false
  | Sdg.Actual_in (_, s, _) -> (
    match Hashtbl.find_opt (Sdg.stmt_table g) s with
    | None -> false
    | Some si -> not (Loc.is_none (Program.stmt_loc si)))
  | Sdg.Stmt (_, s) -> (
    match Hashtbl.find_opt (Sdg.stmt_table g) s with
    | None -> false
    | Some si -> (
      (not (Loc.is_none (Program.stmt_loc si)))
      &&
      match si.Program.s_site with
      | Program.Site_instr { Instr.i_kind = Instr.Phi _; _ } -> false
      | Program.Site_instr _ -> true
      | Program.Site_term { Instr.t_kind = Instr.Goto _; _ } -> false
      | Program.Site_term _ -> true))

let scan_nodes_at_line (g : Sdg.t) (line : int) : Sdg.node list =
  let out = ref [] in
  for n = 0 to Sdg.num_nodes g - 1 do
    if not (Sdg.is_dead g n) then begin
      let loc = scan_loc g n in
      if (not (Slice_ir.Loc.is_none loc)) && loc.Slice_ir.Loc.line = line then
        out := n :: !out
    end
  done;
  List.rev !out

let scan_nodes_to_lines (g : Sdg.t) (nodes : Sdg.node list) :
    Slice_ir.Loc.t list =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  List.iter
    (fun n ->
      if scan_countable g n then begin
        let loc = scan_loc g n in
        let key = (loc.Slice_ir.Loc.file, loc.Slice_ir.Loc.line) in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          out := loc :: !out
        end
      end)
    nodes;
  List.sort Slice_ir.Loc.compare !out

let loc_str (l : Slice_ir.Loc.t) =
  Printf.sprintf "%s:%d:%d" l.Slice_ir.Loc.file l.Slice_ir.Loc.line
    l.Slice_ir.Loc.col

(* Columns, keys, every line's row (0, past the last line, and one
   negative line included), and the emission of every line's thin slice
   plus the whole node range in both orders (repeats and non-countable
   nodes, first occurrence per line). *)
let check_line_index ~(what : string) (g : Sdg.t) : unit =
  let n = Sdg.num_nodes g in
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) what in
  let max_line = ref 0 in
  for i = 0 to n - 1 do
    let l = scan_loc g i in
    if not (Slice_ir.Loc.equal (Sdg.node_loc g i) l) then
      fail "node %d: node_loc %s, scan %s" i (loc_str (Sdg.node_loc g i))
        (loc_str l);
    if Sdg.node_countable g i <> scan_countable g i then
      fail "node %d: node_countable differs" i;
    if (Sdg.line_key g i >= 0) <> scan_countable g i then
      fail "node %d: line_key sign differs from countable" i;
    if Sdg.line_key g i >= Sdg.num_line_keys g then
      fail "node %d: line_key past num_line_keys" i;
    max_line := max !max_line l.Slice_ir.Loc.line
  done;
  (* keys ascend with (file, line) and change exactly where it does *)
  let by_loc =
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      (List.filter_map
         (fun i ->
           if scan_countable g i then
             let l = scan_loc g i in
             Some ((l.Slice_ir.Loc.file, l.Slice_ir.Loc.line), Sdg.line_key g i)
           else None)
         (List.init n Fun.id))
  in
  let rec pairs = function
    | (fl1, k1) :: ((fl2, k2) :: _ as rest) ->
      if (fl1 = fl2) <> (k1 = k2) || (fl1 < fl2 && k1 >= k2) then
        fail "line keys %d/%d disagree with (file, line) order" k1 k2;
      pairs rest
    | _ -> ()
  in
  pairs by_loc;
  let slices = ref [ List.init n Fun.id; List.rev (List.init n Fun.id) ] in
  for line = -1 to !max_line + 1 do
    let expect = scan_nodes_at_line g line in
    if Sdg.nodes_at_line g ~line <> expect then
      fail "nodes_at_line %d differs from the scan" line;
    if expect <> [] then
      slices := Slicer.slice g ~seeds:expect Slicer.Thin :: !slices
  done;
  List.iter
    (fun nodes ->
      let got = Slicer.nodes_to_lines g nodes in
      let expect = scan_nodes_to_lines g nodes in
      if List.length got <> List.length expect
         || not (List.for_all2 Slice_ir.Loc.equal got expect)
      then
        fail "nodes_to_lines [%s] differs from the Hashtbl emission [%s]"
          (String.concat "; " (List.map loc_str got))
          (String.concat "; " (List.map loc_str expect)))
    !slices

let test_line_index_paper_workloads () =
  List.iter
    (fun (name, src) ->
      List.iter
        (fun obj_sens ->
          let g =
            (Engine.of_source ~obj_sens ~file:(name ^ ".tj") src).Engine.sdg
          in
          check_line_index
            ~what:(Printf.sprintf "%s obj_sens=%b" name obj_sens)
            g)
        [ true; false ])
    Suites.paper_workloads

(* Two files that share line numbers: a line's row holds both files'
   nodes, and emission keeps a.tj:N and b.tj:N apart. *)
let test_line_index_two_files () =
  let a_src =
    {|class Box {
  int v;
  int get() { return this.v; }
  void put(int x) { this.v = x; }
}
|}
  in
  let b_src =
    {|void main(String[] args) {
  Box b = new Box();
  int k = 40 + 2;
  b.put(k);
  print(itoa(b.get()));
}
|}
  in
  let a = Engine.of_sources [ ("a.tj", a_src); ("b.tj", b_src) ] in
  let g = a.Engine.sdg in
  check_line_index ~what:"two files" g;
  let files_at line =
    List.sort_uniq compare
      (List.map
         (fun n -> (Sdg.node_loc g n).Slice_ir.Loc.file)
         (Sdg.nodes_at_line g ~line))
  in
  Alcotest.(check (list string)) "line 4 row spans both files"
    [ "a.tj"; "b.tj" ] (files_at 4);
  let locs =
    Slicer.nodes_to_lines g
      (Slicer.slice g ~seeds:(Engine.seeds_at_line_exn a 5) Slicer.Thin)
  in
  let has f l =
    List.exists
      (fun loc -> loc.Slice_ir.Loc.file = f && loc.Slice_ir.Loc.line = l)
      locs
  in
  Alcotest.(check bool) "a.tj:4 emitted" true (has "a.tj" 4);
  Alcotest.(check bool) "b.tj:4 emitted" true (has "b.tj" 4)

(* After every tier of [Engine.update] the handle's index must match a
   scan of the updated graph.  The patched tier rewrites the graph in
   place: a stale index would still list the retired nodes. *)
let test_line_index_after_update () =
  let file = Test_incremental.file and replace = Test_incremental.replace in
  let step (h, src) (tier, o, n) =
    let src' = if o = "" then src else replace src o n in
    let h', rep = Engine.update h [ (file, src') ] in
    let got = Engine.update_path_to_string rep.Engine.up_path in
    Alcotest.(check string) ("tier of edit " ^ n) tier got;
    let g = h'.Engine.h_analysis.Engine.sdg in
    check_line_index ~what:("after " ^ got) g;
    (h', src')
  in
  let base = Test_incremental.base_src in
  let h0 = Engine.load [ (file, base) ] in
  let h, _ =
    List.fold_left step (h0, base)
      [ ("noop", "", "");
        ("patched", "x * 2", "x * 3");
        ("patched", "v + 0", "v + 1");
        ("resolved-incremental", "void set(int v) { this.f = v + 1; }",
          "void set(int v) { A t = new A(); this.f = v; }");
        ("resolved-fresh", "A a = new A();", "A a = new A(); A c = a;");
        ("patched", "a.set(5)", "a.set(7)");
        ("rebuilt", "int f;", "int f; int f2;") ]
  in
  ignore h

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
    Alcotest.test_case "heap counters exact" `Quick test_heap_counters_exact;
    Alcotest.test_case "line index == scan (paper workloads)" `Quick
      test_line_index_paper_workloads;
    Alcotest.test_case "line index == scan (two files)" `Quick
      test_line_index_two_files;
    Alcotest.test_case "line index == scan (after each update tier)" `Quick
      test_line_index_after_update ]
