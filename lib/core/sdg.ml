(* The dependence-graph representation used by both slicers: a variant of
   the system dependence graph [11] in which

   - nodes are statements qualified by the points-to analysis context of
     their method (so container methods cloned by receiver object appear
     once per clone, as in WALA's CGNode-based SDG);
   - every dependence edge is classified, so that thin slicing can follow
     only producer edges (paper, section 3) while traditional slicing also
     follows base-pointer, index, and control edges;
   - heap dependences are direct store-to-load edges computed from the
     points-to result (the scalable context-insensitive representation of
     section 5.2).  The heap-parameter representation for the
     context-sensitive algorithm (section 5.3) lives in [Tabulation].

   Edges are stored backwards: [deps g n] lists the nodes n depends on,
   which is the direction slicing traverses. *)

open Slice_ir
open Slice_pta

type edge_kind =
  | Producer_local      (* SSA def-use, value position *)
  | Producer_heap       (* field/array/static store -> may-aliased load *)
  | Param_in            (* formal  -> actual argument definition *)
  | Return_value        (* call    -> return statement of callee *)
  | Base_pointer        (* def-use into a dereferenced base pointer *)
  | Index               (* def-use into an array index *)
  (* call statement -> its actual-in nodes.  Not value flow: a Weiser-style
     (executable) slice containing a call must also compute the call's
     arguments, even those that cannot affect the seed's value.  Thin
     slicing's relevance notion drops exactly this closure. *)
  | Call_actual
  | Control             (* control dependence *)

(* Telemetry: one counter per edge kind (the Figure 2/3 classification),
   node interning, heap-pair pruning effectiveness, and the CSR
   compaction phase. *)
let c_nodes = Slice_obs.counter "sdg.nodes"
let c_edges = Slice_obs.counter "sdg.edges"
let c_heap_considered = Slice_obs.counter "sdg.heap_pairs_considered"
let c_heap_emitted = Slice_obs.counter "sdg.heap_pairs_emitted"
let c_csr_nodes = Slice_obs.counter "sdg.csr_nodes"
let c_csr_edges = Slice_obs.counter "sdg.csr_edges"
let g_csr_bytes = Slice_obs.gauge "sdg.csr_bytes"

let is_producer = function
  | Producer_local | Producer_heap | Param_in | Return_value -> true
  | Base_pointer | Index | Call_actual | Control -> false

let edge_kind_to_string = function
  | Producer_local -> "producer-local"
  | Producer_heap -> "producer-heap"
  | Param_in -> "param-in"
  | Return_value -> "return-value"
  | Base_pointer -> "base-pointer"
  | Index -> "index"
  | Call_actual -> "call-actual"
  | Control -> "control"

let all_edge_kinds =
  [ Producer_local; Producer_heap; Param_in; Return_value; Base_pointer;
    Index; Call_actual; Control ]

(* Edge kinds as small int tags, for the packed CSR representation. *)
let edge_kind_tag = function
  | Producer_local -> 0
  | Producer_heap -> 1
  | Param_in -> 2
  | Return_value -> 3
  | Base_pointer -> 4
  | Index -> 5
  | Call_actual -> 6
  | Control -> 7

let edge_kind_of_tag_table =
  [| Producer_local; Producer_heap; Param_in; Return_value; Base_pointer;
     Index; Call_actual; Control |]

let edge_kind_of_tag (t : int) : edge_kind = edge_kind_of_tag_table.(t)

(* "sdg.edge.<kind>" counters, interned once. *)
let edge_counter : edge_kind -> Slice_obs.counter =
  let tbl =
    List.map
      (fun k -> (k, Slice_obs.counter ("sdg.edge." ^ edge_kind_to_string k)))
      all_edge_kinds
  in
  fun k -> List.assq k tbl

type node_desc =
  | Stmt of int * Instr.stmt_id          (* method context, statement *)
  | Formal of int * int                  (* method context, parameter index *)
  (* The i-th actual argument of a call statement.  Belongs to the call
     statement for display purposes, so that a call through which a value
     flows appears in the slice (like line 17 of the paper's Figure 1). *)
  | Actual_in of int * Instr.stmt_id * int

type node = int

(* The frozen (immutable) adjacency: compressed sparse rows.  For each
   direction, node [n]'s edges live at indices [off.(n) .. off.(n+1)-1]
   of the flat [dst]/[kind] arrays; [kind] holds [edge_kind_tag]s.  A row
   lists its edges newest first (reverse emission order), the order
   witness paths and report ranks are pinned to. *)
type csr = {
  deps_off : int array;        (* length num_nodes + 1 *)
  deps_dst : int array;        (* length num backward edges *)
  deps_kind : int array;
  uses_off : int array;
  uses_dst : int array;
  uses_kind : int array;
}

(* Heap access index built during pass 1 and RETAINED on the graph: an
   incremental patch re-indexes only the changed methods' accesses and
   wires them against this, instead of re-scanning the program. *)
type heap_index = {
  field_writes : (int * string, (node * Instr.stmt_id) list ref) Hashtbl.t;
  field_reads : (int * string, (node * Instr.stmt_id) list ref) Hashtbl.t;
  static_writes : (Types.class_name * Types.field_name, node list ref) Hashtbl.t;
  static_reads : (Types.class_name * Types.field_name, node list ref) Hashtbl.t;
  len_writes : (int, node list ref) Hashtbl.t;   (* abstract array -> new[] *)
  len_reads : (int, node list ref) Hashtbl.t;
}

module Edge_set = Hashtbl.Make (Int)

(* Per-node query columns and the line index, rebuilt once per graph
   generation (by [freeze], then by every committed [patch]) so that the
   serve path reads arrays instead of hashing into the statement table:

   - [loc]: each node's source location ([Loc.none] for formals and for
     nodes whose statement the table no longer holds);
   - [key]: a dense int per (file, line) for countable nodes, -1 for the
     rest, so [key >= 0] is the countable bit.  Files own consecutive key
     ranges in [String.compare] order, [base file + line], so ascending
     keys are ascending (file, line);
   - [line_off]/[line_nodes]: a CSR over line numbers (every file) of the
     live nodes with a location, each row in ascending node order. *)
type line_index = {
  loc : Loc.t array;
  key : int array;
  num_keys : int;
  line_off : int array;    (* length max line + 2 *)
  line_nodes : int array;
}

type t = {
  p : Program.t;
  pta : Andersen.result;
  mutable stmt_table : (Instr.stmt_id, Program.stmt_info) Hashtbl.t;
      (* rebuilt by [patch]: re-lowered bodies carry fresh statement ids *)
  mutable descs : node_desc array;
  mutable num_nodes : int;
  intern : (node_desc, node) Hashtbl.t;
  (* Edges recorded by [build], in emission order, until [freeze]: two
     ints per edge, [from] then [on lsl 3 lor kind tag]; [edge_seen]
     holds the same packed triples as one int key each, for dedup. *)
  mutable edge_buf : int array;
  mutable edge_count : int;
  edge_seen : unit Edge_set.t;
  mutable csr : csr option;    (* set by [freeze]; edge buffer dropped then *)
  mutable lx : line_index option;  (* set by [freeze], rebuilt by [patch] *)
  hx : heap_index;             (* retained for incremental patching *)
  (* Incremental patch state.  A patched graph keeps its CSR for
     untouched rows and OVERLAYS the rows the patch rewrote; row lookup
     checks the overlay first (one extra branch, only when [patched]).
     Dead nodes (statements of re-lowered method bodies) keep their ids
     — rows emptied, descs retired from the intern — so alive node ids
     are stable across a patch and resident scratch/provenance buffers
     stay valid. *)
  mutable ov_deps : (int array * int array) option array;  (* (dst, kind tags) *)
  mutable ov_uses : (int array * int array) option array;
  mutable dead : bool array;
  mutable dead_count : int;
  mutable generation : int;    (* bumped per committed patch *)
  mutable patched : bool;
  mutable patching : bool;     (* intern re-opened during a patch session *)
}

let program (g : t) = g.p
let pta (g : t) = g.pta
let stmt_table (g : t) = g.stmt_table

let node_desc (g : t) (n : node) : node_desc = g.descs.(n)

let num_nodes (g : t) = g.num_nodes

let is_frozen (g : t) : bool = g.csr <> None

(* Node retired by a patch?  ([dead] stays empty until the first one.) *)
let is_dead (g : t) (n : node) : bool =
  Array.length g.dead > 0 && g.dead.(n)

let frozen_error what =
  invalid_arg (Printf.sprintf "Sdg.%s: graph is frozen (immutable)" what)

let intern (g : t) (d : node_desc) : node =
  match Hashtbl.find_opt g.intern d with
  | Some n -> n
  | None ->
    if is_frozen g && not g.patching then frozen_error "intern";
    let n = g.num_nodes in
    if n = Array.length g.descs then begin
      let grow a default =
        let b = Array.make (2 * n) default in
        Array.blit a 0 b 0 n;
        b
      in
      g.descs <- grow g.descs (Formal (-1, -1));
      if Array.length g.ov_deps > 0 then begin
        g.ov_deps <- grow g.ov_deps None;
        g.ov_uses <- grow g.ov_uses None
      end;
      if Array.length g.dead > 0 then g.dead <- grow g.dead false
    end;
    g.descs.(n) <- d;
    g.num_nodes <- n + 1;
    Hashtbl.replace g.intern d n;
    Slice_obs.bump c_nodes;
    n

let find_node (g : t) (d : node_desc) : node option = Hashtbl.find_opt g.intern d

(* Record the edge [from -> on] unless it is a self-loop or already
   recorded.  Node ids stay below 2^29, so the triple packs into one int. *)
let add_edge (g : t) ~(from : node) ~(on : node) (kind : edge_kind) : unit =
  let tagged = (on lsl 3) lor edge_kind_tag kind in
  let key = (from lsl 32) lor tagged in
  if from <> on && not (Edge_set.mem g.edge_seen key) then begin
    if is_frozen g then frozen_error "add_edge";
    Edge_set.replace g.edge_seen key ();
    Slice_obs.bump c_edges;
    Slice_obs.bump (edge_counter kind);
    let i = 2 * g.edge_count in
    if i = Array.length g.edge_buf then begin
      let b = Array.make (2 * i) 0 in
      Array.blit g.edge_buf 0 b 0 i;
      g.edge_buf <- b
    end;
    g.edge_buf.(i) <- from;
    g.edge_buf.(i + 1) <- tagged;
    g.edge_count <- g.edge_count + 1
  end

(* ------------------------------------------------------------------ *)
(* Freeze: fill the CSR from the edge buffer                           *)
(* ------------------------------------------------------------------ *)

(* One direction of adjacency: [row e] and [other e] are edge [e]'s row
   node and the node it points to.  Degrees are counted into [off] as
   row ends; placing the edges in emission order, each one just below
   its row's cursor, leaves every row newest first and [off] at the row
   starts. *)
let compact_direction (g : t) ~(row : int -> int) ~(other : int -> int) :
    int array * int array * int array =
  let n = g.num_nodes and m = g.edge_count and buf = g.edge_buf in
  let off = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    let r = row e in
    off.(r) <- off.(r) + 1
  done;
  for i = 1 to n do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  let dst = Array.make (max 1 m) 0 in
  let kind = Array.make (max 1 m) 0 in
  for e = 0 to m - 1 do
    let r = row e in
    let j = off.(r) - 1 in
    off.(r) <- j;
    dst.(j) <- other e;
    kind.(j) <- buf.((2 * e) + 1) land 7
  done;
  (off, dst, kind)

(* ------------------------------------------------------------------ *)
(* Query columns and the line index                                    *)
(* ------------------------------------------------------------------ *)

(* Build the columns and the line CSR for the current generation.  One
   pass over the program's statements — in [Program.build_stmt_table]'s
   order, so a statement id seen twice resolves as in the table — fills
   stmt-indexed columns (statement ids are below [Program.stmt_count]):
   the location, and the line, file id and countable site bit packed in
   one int.  Every per-node step after that reads int arrays, never a
   location record or a hash table.  File names are hashed at most once
   per statement — consecutive statements almost always share the file
   string, which a physical-equality check catches first.  Locations
   with a negative line (the front end produces none) get no key and no
   row. *)
let build_line_index (g : t) : line_index =
  let n = g.num_nodes in
  let nstmts = Program.stmt_count g.p in
  let s_loc = Array.make nstmts Loc.none in
  (* [file lsl 32 lor line lsl 1 lor countable site], -1: no location *)
  let s_info = Array.make nstmts (-1) in
  let file_ids : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let file_max = ref [||] in               (* largest line, by file id *)
  let last_file = ref None in
  let file_id (f : string) : int =
    match !last_file with
    | Some (f', id) when f' == f -> id
    | _ ->
      let id =
        match Hashtbl.find_opt file_ids f with
        | Some id -> id
        | None ->
          let id = Hashtbl.length file_ids in
          Hashtbl.replace file_ids f id;
          file_max := Array.append !file_max [| -1 |];
          id
      in
      last_file := Some (f, id);
      id
  in
  let record s (l : Loc.t) (countable_site : bool) =
    s_loc.(s) <- l;
    if Loc.is_none l || l.Loc.line < 0 then s_info.(s) <- -1
    else begin
      let f = file_id l.Loc.file in
      if l.Loc.line > !file_max.(f) then !file_max.(f) <- l.Loc.line;
      s_info.(s) <-
        (f lsl 32) lor (l.Loc.line lsl 1) lor Bool.to_int countable_site
    end
  in
  Program.iter_methods g.p (fun m ->
      Instr.iter_instrs m (fun _ i ->
          record i.Instr.i_id i.Instr.i_loc
            (match i.Instr.i_kind with Instr.Phi _ -> false | _ -> true));
      Instr.iter_terms m (fun _ t ->
          record t.Instr.t_id t.Instr.t_loc
            (match t.Instr.t_kind with Instr.Goto _ -> false | _ -> true)));
  (* Files own consecutive key ranges, in name order. *)
  let base = Array.make (Hashtbl.length file_ids) 0 in
  let num_keys =
    List.fold_left
      (fun next f ->
        let id = Hashtbl.find file_ids f in
        base.(id) <- next;
        next + !file_max.(id) + 1)
      0
      (List.sort String.compare
         (Hashtbl.fold (fun f _ acc -> f :: acc) file_ids []))
  in
  let max_line = Array.fold_left max (-1) !file_max in
  let loc = Array.make n Loc.none in
  let key = Array.make n (-1) in
  let row = Array.make n (-1) in           (* line of an indexed node *)
  let line_off = Array.make (max_line + 2) 0 in
  for i = 0 to n - 1 do
    let s, actual =
      match g.descs.(i) with
      | Formal _ -> (-1, false)
      | Stmt (_, s) -> (s, false)
      | Actual_in (_, s, _) -> (s, true)
    in
    if s >= 0 && s < nstmts then begin
      loc.(i) <- s_loc.(s);
      let info = s_info.(s) in
      if info >= 0 then begin
        let line = (info lsr 1) land 0x7fff_ffff in
        if actual || info land 1 = 1 then
          key.(i) <- base.(info lsr 32) + line;
        if not (is_dead g i) then begin
          row.(i) <- line;
          line_off.(line) <- line_off.(line) + 1
        end
      end
    end
  done;
  for l = 1 to max_line + 1 do
    line_off.(l) <- line_off.(l) + line_off.(l - 1)
  done;
  (* [line_off] holds row ends; placing nodes from the highest id down,
     each just below its row's cursor, leaves every row ascending and
     [line_off] at the row starts. *)
  let line_nodes = Array.make (max 1 line_off.(max_line + 1)) 0 in
  for i = n - 1 downto 0 do
    let line = row.(i) in
    if line >= 0 then begin
      let j = line_off.(line) - 1 in
      line_off.(line) <- j;
      line_nodes.(j) <- i
    end
  done;
  { loc; key; num_keys; line_off; line_nodes }

(* Compact the edge buffer into the immutable CSR layout and drop it and
   the dedup table (the graph no longer accepts edges), then build the
   query columns.  Idempotent; recorded under the "sdg.freeze" span. *)
let freeze (g : t) : unit =
  if not (is_frozen g) then
    Slice_obs.span "sdg.freeze" (fun () ->
        g.lx <- Some (build_line_index g);
        let n = g.num_nodes and buf = g.edge_buf in
        let from e = buf.(2 * e) and on e = buf.((2 * e) + 1) lsr 3 in
        let deps_off, deps_dst, deps_kind =
          compact_direction g ~row:from ~other:on
        in
        let uses_off, uses_dst, uses_kind =
          compact_direction g ~row:on ~other:from
        in
        g.csr <-
          Some { deps_off; deps_dst; deps_kind; uses_off; uses_dst; uses_kind };
        g.edge_buf <- [||];
        g.edge_count <- 0;
        Edge_set.reset g.edge_seen;
        Slice_obs.add c_csr_nodes n;
        Slice_obs.add c_csr_edges deps_off.(n);
        (* two offset arrays + two (dst, kind) pairs, 8 bytes per word *)
        Slice_obs.max_gauge g_csr_bytes
          (float_of_int (8 * (2 * (n + 1) + 2 * (deps_off.(n) + uses_off.(n))))))

let unfrozen_error what =
  invalid_arg (Printf.sprintf "Sdg.%s: graph is not frozen" what)

(* The hot-path accessors: no allocation per edge.  On a patched graph,
   rows the patch rewrote (and rows of nodes interned after the freeze)
   live in the overlay and are checked first. *)
let deps_iter (g : t) (n : node) (f : node -> edge_kind -> unit) : unit =
  match if g.patched then g.ov_deps.(n) else None with
  | Some (dst, kind) ->
    for i = 0 to Array.length dst - 1 do
      f (Array.unsafe_get dst i)
        (edge_kind_of_tag (Array.unsafe_get kind i))
    done
  | None -> (
    match g.csr with
    | None -> unfrozen_error "deps_iter"
    | Some c ->
      for i = c.deps_off.(n) to c.deps_off.(n + 1) - 1 do
        f (Array.unsafe_get c.deps_dst i)
          (edge_kind_of_tag (Array.unsafe_get c.deps_kind i))
      done)

let uses_iter (g : t) (n : node) (f : node -> edge_kind -> unit) : unit =
  match if g.patched then g.ov_uses.(n) else None with
  | Some (dst, kind) ->
    for i = 0 to Array.length dst - 1 do
      f (Array.unsafe_get dst i)
        (edge_kind_of_tag (Array.unsafe_get kind i))
    done
  | None -> (
    match g.csr with
    | None -> unfrozen_error "uses_iter"
    | Some c ->
      for i = c.uses_off.(n) to c.uses_off.(n + 1) - 1 do
        f (Array.unsafe_get c.uses_dst i)
          (edge_kind_of_tag (Array.unsafe_get c.uses_kind i))
      done)

let num_edges (g : t) : int =
  match g.csr with
  | None -> unfrozen_error "num_edges"
  | Some c when not g.patched -> c.deps_off.(g.num_nodes)
  | Some _ ->
    let total = ref 0 in
    for n = 0 to g.num_nodes - 1 do
      deps_iter g n (fun _ _ -> incr total)
    done;
    !total

(* A row as a list, in row order; prefer the [_iter] forms in new code
   (these allocate a fresh list per call). *)
let row_to_list off dst kind n =
  let rec go i acc =
    if i < off.(n) then acc
    else go (i - 1) ((dst.(i), edge_kind_of_tag kind.(i)) :: acc)
  in
  go (off.(n + 1) - 1) []

let ov_row_to_list (dst, kind) =
  let rec go i acc =
    if i < 0 then acc else go (i - 1) ((dst.(i), edge_kind_of_tag kind.(i)) :: acc)
  in
  go (Array.length dst - 1) []

let deps (g : t) (n : node) : (node * edge_kind) list =
  match if g.patched then g.ov_deps.(n) else None with
  | Some row -> ov_row_to_list row
  | None -> (
    match g.csr with
    | None -> unfrozen_error "deps"
    | Some c -> row_to_list c.deps_off c.deps_dst c.deps_kind n)

let uses (g : t) (n : node) : (node * edge_kind) list =
  match if g.patched then g.ov_uses.(n) else None with
  | Some row -> ov_row_to_list row
  | None -> (
    match g.csr with
    | None -> unfrozen_error "uses"
    | Some c -> row_to_list c.uses_off c.uses_dst c.uses_kind n)

let line_index (g : t) (what : string) : line_index =
  match g.lx with Some ix -> ix | None -> unfrozen_error what

(* The source location of a node ([Loc.none] for formals). *)
let node_loc (g : t) (n : node) : Loc.t = (line_index g "node_loc").loc.(n)

let node_stmt (g : t) (n : node) : Instr.stmt_id option =
  match g.descs.(n) with
  | Stmt (_, s) | Actual_in (_, s, _) -> Some s
  | Formal _ -> None

let line_key (g : t) (n : node) : int = (line_index g "line_key").key.(n)

let num_line_keys (g : t) : int = (line_index g "num_line_keys").num_keys

(* Statements a user would read: real instructions with a source location,
   excluding phis and compiler-internal statements. *)
let node_countable (g : t) (n : node) : bool = line_key g n >= 0

let pp_node (g : t) ppf (n : node) : unit =
  match g.descs.(n) with
  | Formal (mc, i) ->
    let mq, _ = Andersen.mctx_info g.pta mc in
    Format.fprintf ppf "formal %d of %a" i Instr.pp_method_qname mq
  | Actual_in (_, s, i) ->
    Format.fprintf ppf "actual %d of %s" i (Pretty.stmt_to_string g.p g.stmt_table s)
  | Stmt (mc, s) ->
    let _, ctx = Andersen.mctx_info g.pta mc in
    Format.fprintf ppf "%s %a"
      (Pretty.stmt_to_string g.p g.stmt_table s)
      (Context.pp_ctx (Andersen.contexts g.pta))
      ctx

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let push tbl key v =
  let cell =
    match Hashtbl.find_opt tbl key with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace tbl key r;
      r
  in
  cell := v :: !cell

(* The per-method pass bodies are shared between [build] (every reachable
   method context) and [patch] (only re-lowered ones); [emit] is
   [add_edge] during a build and the session emitter during a patch. *)

(* Pass 1 body: intraprocedural edges + heap access indexing into [hx]
   (the graph's own index during a build, a fresh one during a patch so
   the new accesses are known for targeted re-wiring). *)
let intra_pass (g : t) (hx : heap_index)
    ~(emit : from:node -> on:node -> edge_kind -> unit) (mc : int)
    (m : Instr.meth) : unit =
  let p = g.p and pta = g.pta in
  if Instr.has_body m then begin
    (* SSA def map: variable -> defining statement *)
    let def_stmt : (Instr.var, Instr.stmt_id) Hashtbl.t = Hashtbl.create 64 in
    Instr.iter_instrs m (fun _ i ->
        match Instr.def_of_instr i with
        | Some v -> Hashtbl.replace def_stmt v i.Instr.i_id
        | None -> ());
    let param_index = Hashtbl.create 8 in
    List.iteri (fun idx v -> Hashtbl.replace param_index v idx) m.Instr.m_params;
    (* the node a use of [v] depends on *)
    let def_target (v : Instr.var) : node option =
      match Hashtbl.find_opt def_stmt v with
      | Some s -> Some (intern g (Stmt (mc, s)))
      | None -> (
        match Hashtbl.find_opt param_index v with
        | Some idx -> Some (intern g (Formal (mc, idx)))
        | None -> None)
    in
    let use_edge (from : node) (v : Instr.var) (kind : edge_kind) : unit =
      match def_target v with
      | Some dep -> emit ~from ~on:dep kind
      | None -> ()
    in
    Instr.iter_instrs m (fun _ i ->
        let n = intern g (Stmt (mc, i.Instr.i_id)) in
        (match i.Instr.i_kind with
        | Instr.Call { args; kind; _ } ->
          (* Argument uses reach callees through formal nodes; only
             intrinsic callees take their arguments directly. *)
          let intr = Andersen.intrinsic_targets pta ~mctx:mc ~stmt:i.Instr.i_id in
          let body_callees = Andersen.call_targets pta ~mctx:mc ~stmt:i.Instr.i_id in
          if intr <> [] then
            List.iter (fun a -> use_edge n a Producer_local) args;
          (* return-value edges *)
          List.iter
            (fun cmc ->
              let cmq, _ = Andersen.mctx_info pta cmc in
              let cm = Program.find_method_exn p cmq in
              Instr.iter_terms cm (fun _ t ->
                  match t.Instr.t_kind with
                  | Instr.Return (Some _) ->
                    emit ~from:n
                      ~on:(intern g (Stmt (cmc, t.Instr.t_id)))
                      Return_value
                  | Instr.Return None | Instr.Goto _ | Instr.If _
                  | Instr.Throw _ -> ()))
            body_callees;
          ignore kind
        | _ ->
          List.iter
            (fun (v, cls) ->
              let kind =
                match cls with
                | Instr.Use_value -> Producer_local
                | Instr.Use_base -> Base_pointer
                | Instr.Use_index -> Index
              in
              use_edge n v kind)
            (Instr.classified_uses i));
        (* heap indexing *)
        match i.Instr.i_kind with
        | Instr.Store (x, f, _) ->
          Andersen.pts_iter_var pta ~mctx:mc x (fun o ->
              push hx.field_writes (o, f) (n, i.Instr.i_id))
        | Instr.Load (_, y, f) ->
          Andersen.pts_iter_var pta ~mctx:mc y (fun o ->
              push hx.field_reads (o, f) (n, i.Instr.i_id))
        | Instr.Array_store (a, _, _) ->
          Andersen.pts_iter_var pta ~mctx:mc a (fun o ->
              push hx.field_writes (o, Andersen.elem_field) (n, i.Instr.i_id))
        | Instr.Array_load (_, a, _) ->
          Andersen.pts_iter_var pta ~mctx:mc a (fun o ->
              push hx.field_reads (o, Andersen.elem_field) (n, i.Instr.i_id))
        | Instr.New_array (x, _, _) ->
          Andersen.pts_iter_var pta ~mctx:mc x (fun o ->
              push hx.len_writes o n)
        | Instr.Array_length (_, a) ->
          Andersen.pts_iter_var pta ~mctx:mc a (fun o ->
              push hx.len_reads o n)
        | Instr.Static_store (c, f, _) -> push hx.static_writes (c, f) n
        | Instr.Static_load (_, c, f) -> push hx.static_reads (c, f) n
        | Instr.Const _ | Instr.Move _ | Instr.Binop _ | Instr.Unop _
        | Instr.New _ | Instr.Call _ | Instr.Cast _ | Instr.Instance_of _
        | Instr.Phi _ | Instr.Nop -> ());
    Instr.iter_terms m (fun _ t ->
        let n = intern g (Stmt (mc, t.Instr.t_id)) in
        List.iter (fun v -> use_edge n v Producer_local) (Instr.uses_of_term t))
  end

(* Pass 1 body over the arena view — the memory-diet hot path for mega
   programs.  Emission order is IDENTICAL to [intra_pass]: the arena's
   instruction/terminator columns are laid out in [Instr.iter_instrs] /
   [iter_terms] order, uses in [classified_uses] order, so the two
   bodies produce the same edges in the same sequence (pinned by the
   arena/record equivalence tests).  The wins are mechanical: the SSA
   def map and param index become int scratch arrays instead of
   hashtables, use lists are walked as packed CSR spans without
   allocating, and heap-access dispatch reads a tag column instead of
   matching on record constructors. *)
let intra_pass_arena (g : t) (hx : heap_index) (ar : Arena.t)
    ~(emit : from:node -> on:node -> edge_kind -> unit) (mc : int) (am : int) :
    unit =
  let pta = g.pta in
  let nvars = Arena.num_vars ar am in
  let var_def = Array.make (max 1 nvars) (-1) in
  let var_param = Array.make (max 1 nvars) (-1) in
  let lo, hi = Arena.instr_span ar am in
  for ix = lo to hi - 1 do
    let d = Arena.instr_def ar ix in
    if d >= 0 then var_def.(d) <- Arena.instr_stmt ar ix
  done;
  for i = 0 to Arena.num_params ar am - 1 do
    var_param.(Arena.param_var ar am i) <- i
  done;
  let def_target (v : Instr.var) : node option =
    if v < 0 || v >= nvars then None
    else
      let s = var_def.(v) in
      if s >= 0 then Some (intern g (Stmt (mc, s)))
      else
        let idx = var_param.(v) in
        if idx >= 0 then Some (intern g (Formal (mc, idx))) else None
  in
  let use_edge (from : node) (v : Instr.var) (kind : edge_kind) : unit =
    match def_target v with
    | Some dep -> emit ~from ~on:dep kind
    | None -> ()
  in
  for ix = lo to hi - 1 do
    let s = Arena.instr_stmt ar ix in
    let n = intern g (Stmt (mc, s)) in
    let op = Arena.instr_op ar ix in
    (match op with
    | Arena.Op_call ->
      let intr = Andersen.intrinsic_targets pta ~mctx:mc ~stmt:s in
      let body_callees = Andersen.call_targets pta ~mctx:mc ~stmt:s in
      if intr <> [] then
        Arena.args_iter ar ix (fun a -> use_edge n a Producer_local);
      List.iter
        (fun cmc ->
          let cmq, _ = Andersen.mctx_info pta cmc in
          match Arena.method_id ar cmq with
          | None -> ()
          | Some cam ->
            let tlo, thi = Arena.term_span ar cam in
            for tx = tlo to thi - 1 do
              if Arena.term_is_value_return ar tx then
                emit ~from:n
                  ~on:(intern g (Stmt (cmc, Arena.term_stmt ar tx)))
                  Return_value
            done)
        body_callees
    | _ ->
      Arena.uses_iter ar ix (fun v tag ->
          let kind =
            match tag with
            | 0 -> Producer_local
            | 1 -> Base_pointer
            | _ -> Index
          in
          use_edge n v kind));
    match op with
    | Arena.Op_store ->
      Andersen.pts_iter_var pta ~mctx:mc (Arena.instr_base ar ix) (fun o ->
          push hx.field_writes (o, Arena.instr_sym ar ix) (n, s))
    | Arena.Op_load ->
      Andersen.pts_iter_var pta ~mctx:mc (Arena.instr_base ar ix) (fun o ->
          push hx.field_reads (o, Arena.instr_sym ar ix) (n, s))
    | Arena.Op_array_store ->
      Andersen.pts_iter_var pta ~mctx:mc (Arena.instr_base ar ix) (fun o ->
          push hx.field_writes (o, Andersen.elem_field) (n, s))
    | Arena.Op_array_load ->
      Andersen.pts_iter_var pta ~mctx:mc (Arena.instr_base ar ix) (fun o ->
          push hx.field_reads (o, Andersen.elem_field) (n, s))
    | Arena.Op_new_array ->
      Andersen.pts_iter_var pta ~mctx:mc (Arena.instr_base ar ix) (fun o ->
          push hx.len_writes o n)
    | Arena.Op_array_length ->
      Andersen.pts_iter_var pta ~mctx:mc (Arena.instr_base ar ix) (fun o ->
          push hx.len_reads o n)
    | Arena.Op_static_store ->
      push hx.static_writes (Arena.instr_sym ar ix, Arena.instr_sym2 ar ix) n
    | Arena.Op_static_load ->
      push hx.static_reads (Arena.instr_sym ar ix, Arena.instr_sym2 ar ix) n
    | Arena.Op_call | Arena.Op_other -> ()
  done;
  let tlo, thi = Arena.term_span ar am in
  for tx = tlo to thi - 1 do
    let n = intern g (Stmt (mc, Arena.term_stmt ar tx)) in
    Arena.term_uses_iter ar tx (fun v -> use_edge n v Producer_local)
  done

(* Pass 2 body: formal -> actual edges (parameter passing), for one
   method as the CALLER.  The callee side (the formal node) is signature
   stable, which is what lets a patch keep formal nodes alive. *)
let params_pass (g : t) ~(emit : from:node -> on:node -> edge_kind -> unit)
    (mc : int) (m : Instr.meth) : unit =
  let pta = g.pta in
  if Instr.has_body m then begin
    let def_stmt = Hashtbl.create 64 in
    let def_instr = Hashtbl.create 64 in
    Instr.iter_instrs m (fun _ j ->
        match Instr.def_of_instr j with
        | Some v ->
          Hashtbl.replace def_stmt v j.Instr.i_id;
          Hashtbl.replace def_instr v j
        | None -> ());
    let param_index = Hashtbl.create 8 in
    List.iteri (fun idx v -> Hashtbl.replace param_index v idx) m.Instr.m_params;
    let actual_node (v : Instr.var) : node option =
      match Hashtbl.find_opt def_stmt v with
      | Some s -> Some (intern g (Stmt (mc, s)))
      | None -> (
        match Hashtbl.find_opt param_index v with
        | Some idx -> Some (intern g (Formal (mc, idx)))
        | None -> None)
    in
    Instr.iter_instrs m (fun _ i ->
        match i.Instr.i_kind with
        | Instr.Call { args; _ } ->
          (* A kept allocation needs its constructor in a Weiser-style
             slice: tie the New to the <init> invocation. *)
          (match (i.Instr.i_kind, args) with
          | Instr.Call { kind = Instr.Special _; _ }, recv :: _ -> (
            match Hashtbl.find_opt def_instr recv with
            | Some { Instr.i_kind = Instr.New _; i_id; _ } ->
              emit
                ~from:(intern g (Stmt (mc, i_id)))
                ~on:(intern g (Stmt (mc, i.Instr.i_id)))
                Call_actual
            | Some _ | None -> ())
          | _ -> ());
          List.iter
            (fun cmc ->
              List.iteri
                (fun idx a ->
                  match actual_node a with
                  | Some an ->
                    let actual =
                      intern g (Actual_in (mc, i.Instr.i_id, idx))
                    in
                    emit
                      ~from:(intern g (Formal (cmc, idx)))
                      ~on:actual Param_in;
                    emit ~from:actual ~on:an Producer_local;
                    (* statement closure for traditional slicing *)
                    emit
                      ~from:(intern g (Stmt (mc, i.Instr.i_id)))
                      ~on:actual Call_actual
                  | None -> ())
                args)
            (Andersen.call_targets pta ~mctx:mc ~stmt:i.Instr.i_id)
        | _ -> ())
  end

(* Pass 4 body: control dependence edges for one method.
   [entry_callers] are the call-site nodes invoking it (entry-governed
   statements are control-dependent on them). *)
let control_pass (g : t) ~(emit : from:node -> on:node -> edge_kind -> unit)
    ~(entry_callers : node list) (mc : int) (m : Instr.meth) : unit =
  if Instr.has_body m then begin
    let cfg = Cfg.build m in
    let pdom = Dominance.compute (Dominance.backward_graph cfg) in
    let pdf = Dominance.dominance_frontiers pdom in
    let blocks = Instr.blocks_exn m in
    let nblocks = Array.length blocks in
    for bl = 0 to nblocks - 1 do
      let governors =
        List.filter (fun b -> b < nblocks) pdf.(bl)
        |> List.map (fun b -> intern g (Stmt (mc, blocks.(b).Instr.b_term.Instr.t_id)))
      in
      let wire n =
        if governors = [] then
          (* governed by method entry: control-dependent on call sites *)
          List.iter (fun c -> emit ~from:n ~on:c Control) entry_callers
        else List.iter (fun c -> emit ~from:n ~on:c Control) governors
      in
      List.iter
        (fun i -> wire (intern g (Stmt (mc, i.Instr.i_id))))
        blocks.(bl).Instr.b_instrs;
      wire (intern g (Stmt (mc, blocks.(bl).Instr.b_term.Instr.t_id)))
    done
  end

(* Pass 3 dedup: the candidate heap pair (read [rn], write [wn]) lands
   in a bitset row per write node, so a pair repeated across (object,
   field) keys is emitted once. *)
let consider_pair (rows : (node, Slice_util.Bits.t) Hashtbl.t) rn wn =
  Slice_obs.bump c_heap_considered;
  if rn <> wn then begin
    let row =
      match Hashtbl.find_opt rows wn with
      | Some b -> b
      | None ->
        let b = Slice_util.Bits.create ~capacity:64 () in
        Hashtbl.replace rows wn b;
        b
    in
    ignore (Slice_util.Bits.add row rn)
  end

let build ?arena (p : Program.t) (pta : Andersen.result) : t =
  let hx =
    { field_writes = Hashtbl.create 256;
      field_reads = Hashtbl.create 256;
      static_writes = Hashtbl.create 32;
      static_reads = Hashtbl.create 32;
      len_writes = Hashtbl.create 32;
      len_reads = Hashtbl.create 32 }
  in
  let g =
    { p;
      pta;
      stmt_table = Program.build_stmt_table p;
      descs = Array.make 1024 (Formal (-1, -1));
      num_nodes = 0;
      intern = Hashtbl.create 1024;
      edge_buf = Array.make 8192 0;
      edge_count = 0;
      edge_seen = Edge_set.create 4096;
      csr = None;
      lx = None;
      hx;
      ov_deps = [||];
      ov_uses = [||];
      dead = [||];
      dead_count = 0;
      generation = 0;
      patched = false;
      patching = false }
  in
  let emit ~from ~on kind = add_edge g ~from ~on kind in
  let mcs = Andersen.method_contexts pta in
  (* Pass 1: intraprocedural edges + heap access indexing — over the
     arena view when the caller lowered one (same edges, same order; the
     arena body just walks packed columns instead of records). *)
  Slice_obs.span "sdg.intra" (fun () ->
      match arena with
      | Some ar ->
        List.iter
          (fun (mc, mq, _) ->
            match Arena.method_id ar mq with
            | Some am -> intra_pass_arena g hx ar ~emit mc am
            | None -> ())
          mcs
      | None ->
        List.iter
          (fun (mc, mq, _) ->
            intra_pass g hx ~emit mc (Program.find_method_exn p mq))
          mcs);
  (* Pass 2: formal -> actual edges (parameter passing). *)
  Slice_obs.span "sdg.params" (fun () ->
  List.iter
    (fun (mc, mq, _) -> params_pass g ~emit mc (Program.find_method_exn p mq))
    mcs);
  (* Pass 3: heap dependence edges (store -> load, direct).  Candidate
     (read, write) pairs are deduplicated through a bitset row per
     write-node — the same (rn, wn) pair reappears once per shared
     (object, field) key across contexts — and the surviving pairs are
     emitted in one sweep via [Bits.iter].  The considered bump counts
     every candidate; the emitted bump shares one guard with the actual
     emit (distinct pair, rn <> wn), so emitted == distinct heap edges
     exactly — the "considered vs emitted" ratio of the
     context-insensitive representation. *)
  Slice_obs.span "sdg.heap" (fun () ->
  let rows : (node, Slice_util.Bits.t) Hashtbl.t = Hashtbl.create 256 in
  let consider = consider_pair rows in
  let wire rs ws = List.iter (fun rn -> List.iter (fun wn -> consider rn wn) ws) rs in
  Hashtbl.iter
    (fun key rlist ->
      match Hashtbl.find_opt hx.field_writes key with
      | None -> ()
      | Some wlist -> wire (List.map fst !rlist) (List.map fst !wlist))
    hx.field_reads;
  Hashtbl.iter
    (fun key rlist ->
      match Hashtbl.find_opt hx.static_writes key with
      | None -> ()
      | Some wlist -> wire !rlist !wlist)
    hx.static_reads;
  Hashtbl.iter
    (fun o rlist ->
      match Hashtbl.find_opt hx.len_writes o with
      | None -> ()
      | Some wlist -> wire !rlist !wlist)
    hx.len_reads;
  let wns = List.sort compare (Hashtbl.fold (fun wn _ a -> wn :: a) rows []) in
  List.iter
    (fun wn ->
      Slice_util.Bits.iter
        (fun rn ->
          Slice_obs.bump c_heap_emitted;
          add_edge g ~from:rn ~on:wn Producer_heap)
        (Hashtbl.find rows wn))
    wns);
  (* Pass 4: control dependence edges. *)
  Slice_obs.span "sdg.control" (fun () -> begin
    (* reverse call graph: callee mctx -> caller call-site nodes *)
    let callers : (int, node list ref) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (mc, mq, _) ->
        let m = Program.find_method_exn p mq in
        if Instr.has_body m then
          Instr.iter_instrs m (fun _ i ->
              match i.Instr.i_kind with
              | Instr.Call _ ->
                List.iter
                  (fun cmc ->
                    push callers cmc (intern g (Stmt (mc, i.Instr.i_id))))
                  (Andersen.call_targets pta ~mctx:mc ~stmt:i.Instr.i_id)
              | _ -> ()))
      mcs;
    List.iter
      (fun (mc, mq, _) ->
        let entry_callers =
          match Hashtbl.find_opt callers mc with Some r -> !r | None -> []
        in
        control_pass g ~emit ~entry_callers mc (Program.find_method_exn p mq))
      mcs
  end);
  g

(* ------------------------------------------------------------------ *)
(* Incremental patching                                                *)
(* ------------------------------------------------------------------ *)

let generation (g : t) = g.generation

let num_live_nodes (g : t) = g.num_nodes - g.dead_count

(* Edge census from the graph itself (dead rows are empty, so a patched
   graph counts only live edges) — stats for a patched handle can't use
   the process-wide build counters. *)
let edge_kind_counts (g : t) : (edge_kind * int) list =
  let counts = Array.make (Array.length edge_kind_of_tag_table) 0 in
  for n = 0 to g.num_nodes - 1 do
    deps_iter g n (fun _ k ->
        let t = edge_kind_tag k in
        counts.(t) <- counts.(t) + 1)
  done;
  List.map (fun k -> (k, counts.(edge_kind_tag k))) all_edge_kinds

type patch_stats = {
  ps_nodes_dead : int;
  ps_nodes_new : int;
  ps_rows_touched : int;
  ps_segments_refrozen : int;
  ps_segments_total : int;
}

(* Patch a frozen graph onto re-lowered method bodies, in place.

   Precondition (established by [Engine]): the changed methods'
   constraint summaries are unchanged, the program's method records
   already hold the NEW bodies, and the points-to result has been
   re-keyed onto the new statement ids ([Andersen.rekey_sites]) — so
   every pointer/call-graph fact is already expressed in new ids and
   only the dependence rows need repair.

   The patch retires the changed methods' [Stmt]/[Actual_in] nodes
   (their statement ids no longer exist), KEEPS their [Formal] nodes
   (signatures are stable under summary equality, so caller-side
   [Param_in] edges survive untouched), reruns the shared per-method
   passes over the new bodies, wires new heap accesses against the
   retained index, and repairs the two cross-method edge classes whose
   ALIVE source lost a dead target: [Return_value] (re-enumerated from
   the new return terminators) and [Control] (entry-governed callee
   statements onto the changed caller's call sites, moved via
   [site_remap]).  [Param_in] and [Producer_heap] losses need no
   explicit repair — the re-run passes re-emit them.

   Touched rows are committed as overlays over the immutable CSR; node
   ids never move, so resident scratch buffers stay valid. *)
let patch (g : t) ~(changed : Instr.method_qname list)
    ~(site_remap : Instr.stmt_id -> Instr.stmt_id option) : patch_stats =
  if not (is_frozen g) then invalid_arg "Sdg.patch: graph must be frozen";
  Slice_obs.span "sdg.patch" (fun () ->
  (* First patch on this graph: bring the overlay state up to capacity
     (intern keeps it in step from then on). *)
  let cap = Array.length g.descs in
  if Array.length g.dead < cap then begin
    let grow a mk default =
      let b = mk cap default in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    g.ov_deps <- grow g.ov_deps Array.make None;
    g.ov_uses <- grow g.ov_uses Array.make None;
    g.dead <- grow g.dead Array.make false
  end;
  let old_num = g.num_nodes in
  let frozen_num =
    match g.csr with Some c -> Array.length c.deps_off - 1 | None -> 0
  in
  (* Changed method contexts (every context clone of a changed method). *)
  let cm : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun mq ->
      List.iter
        (fun mc -> Hashtbl.replace cm mc ())
        (Andersen.mctxs_of_method g.pta mq))
    changed;
  (* Retire the changed methods' statement-bound nodes. *)
  let newly_dead = ref [] in
  for n = 0 to old_num - 1 do
    if not g.dead.(n) then
      match g.descs.(n) with
      | (Stmt (mc, _) | Actual_in (mc, _, _)) when Hashtbl.mem cm mc ->
        g.dead.(n) <- true;
        g.dead_count <- g.dead_count + 1;
        Hashtbl.remove g.intern g.descs.(n);
        newly_dead := n :: !newly_dead
      | Stmt _ | Actual_in _ | Formal _ -> ()
  done;
  (* Session rows: rows under repair, materialised copy-on-write from
     the overlay-or-CSR.  [seen] dedups edges; a row's existing edges
     seed it on first materialisation. *)
  let sess_deps : (node, (node * edge_kind) list ref) Hashtbl.t =
    Hashtbl.create 256
  in
  let sess_uses : (node, (node * edge_kind) list ref) Hashtbl.t =
    Hashtbl.create 256
  in
  let seen : (node * node * edge_kind, unit) Hashtbl.t = Hashtbl.create 1024 in
  let raw_row ov csr_row n =
    if n >= old_num then []
    else
      match ov.(n) with
      | Some row -> ov_row_to_list row
      | None -> if n < frozen_num then csr_row n else []
  in
  let raw_deps n =
    raw_row g.ov_deps
      (fun n ->
        match g.csr with
        | Some c -> row_to_list c.deps_off c.deps_dst c.deps_kind n
        | None -> [])
      n
  in
  let raw_uses n =
    raw_row g.ov_uses
      (fun n ->
        match g.csr with
        | Some c -> row_to_list c.uses_off c.uses_dst c.uses_kind n
        | None -> [])
      n
  in
  let mat_deps n =
    match Hashtbl.find_opt sess_deps n with
    | Some r -> r
    | None ->
      let row = raw_deps n in
      List.iter (fun (on, k) -> Hashtbl.replace seen (n, on, k) ()) row;
      let r = ref row in
      Hashtbl.replace sess_deps n r;
      r
  in
  let mat_uses n =
    match Hashtbl.find_opt sess_uses n with
    | Some r -> r
    | None ->
      let r = ref (raw_uses n) in
      Hashtbl.replace sess_uses n r;
      r
  in
  let emit ~from ~on kind =
    if from <> on then begin
      (* materialise (and seed [seen] from) the source row FIRST *)
      let rd = mat_deps from in
      if not (Hashtbl.mem seen (from, on, kind)) then begin
        Hashtbl.replace seen (from, on, kind) ();
        let ru = mat_uses on in
        rd := (on, kind) :: !rd;
        ru := (from, kind) :: !ru;
        Slice_obs.bump c_edges;
        Slice_obs.bump (edge_counter kind)
      end
    end
  in
  (* Disconnect dead nodes from alive rows, recording each alive source
     that lost a dependence (the loss classes needing repair). *)
  let losses : (node * edge_kind * node_desc) list ref = ref [] in
  List.iter
    (fun d ->
      List.iter
        (fun (on, k) ->
          if not g.dead.(on) then begin
            let ru = mat_uses on in
            ru := List.filter (fun (f, k') -> not (f = d && k' = k)) !ru
          end)
        (raw_deps d);
      List.iter
        (fun (from, k) ->
          if not g.dead.(from) then begin
            let rd = mat_deps from in
            rd := List.filter (fun (on', k') -> not (on' = d && k' = k)) !rd;
            losses := (from, k, g.descs.(d)) :: !losses
          end)
        (raw_uses d))
    !newly_dead;
  (* Purge dead accesses from the retained heap index. *)
  let purge_pairs tbl =
    Hashtbl.iter (fun _ r -> r := List.filter (fun (n, _) -> not g.dead.(n)) !r) tbl
  in
  let purge_nodes tbl =
    Hashtbl.iter (fun _ r -> r := List.filter (fun n -> not g.dead.(n)) !r) tbl
  in
  purge_pairs g.hx.field_writes;
  purge_pairs g.hx.field_reads;
  purge_nodes g.hx.static_writes;
  purge_nodes g.hx.static_reads;
  purge_nodes g.hx.len_writes;
  purge_nodes g.hx.len_reads;
  let changed_mcs =
    Hashtbl.fold
      (fun mc () acc ->
        let mq, _ = Andersen.mctx_info g.pta mc in
        (mc, Program.find_method_exn g.p mq) :: acc)
      cm []
  in
  g.patching <- true;
  (* Pass 1 over the new bodies, indexing their heap accesses apart. *)
  let hx_new =
    { field_writes = Hashtbl.create 32;
      field_reads = Hashtbl.create 32;
      static_writes = Hashtbl.create 8;
      static_reads = Hashtbl.create 8;
      len_writes = Hashtbl.create 8;
      len_reads = Hashtbl.create 8 }
  in
  List.iter (fun (mc, m) -> intra_pass g hx_new ~emit mc m) changed_mcs;
  (* Pass 2: the changed methods as callers. *)
  List.iter (fun (mc, m) -> params_pass g ~emit mc m) changed_mcs;
  (* Pass 3: merge the new accesses into the retained index, then wire
     new reads x all writes and all reads x new writes (the new x new
     corner lands in both sweeps; the bitset rows dedup it). *)
  let merge_pairs src dst = Hashtbl.iter (fun k r -> List.iter (push dst k) !r) src in
  merge_pairs hx_new.field_writes g.hx.field_writes;
  merge_pairs hx_new.field_reads g.hx.field_reads;
  merge_pairs hx_new.static_writes g.hx.static_writes;
  merge_pairs hx_new.static_reads g.hx.static_reads;
  merge_pairs hx_new.len_writes g.hx.len_writes;
  merge_pairs hx_new.len_reads g.hx.len_reads;
  let rows : (node, Slice_util.Bits.t) Hashtbl.t = Hashtbl.create 64 in
  let consider = consider_pair rows in
  let sweep_pairs news alls ~read_side =
    Hashtbl.iter
      (fun key nlist ->
        match Hashtbl.find_opt alls key with
        | None -> ()
        | Some olist ->
          List.iter
            (fun (nn, _) ->
              List.iter
                (fun (on, _) ->
                  if read_side then consider nn on else consider on nn)
                !olist)
            !nlist)
      news
  in
  sweep_pairs hx_new.field_reads g.hx.field_writes ~read_side:true;
  sweep_pairs hx_new.field_writes g.hx.field_reads ~read_side:false;
  let sweep_nodes news alls ~read_side =
    Hashtbl.iter
      (fun key nlist ->
        match Hashtbl.find_opt alls key with
        | None -> ()
        | Some olist ->
          List.iter
            (fun nn ->
              List.iter
                (fun on -> if read_side then consider nn on else consider on nn)
                !olist)
            !nlist)
      news
  in
  sweep_nodes hx_new.static_reads g.hx.static_writes ~read_side:true;
  sweep_nodes hx_new.static_writes g.hx.static_reads ~read_side:false;
  sweep_nodes hx_new.len_reads g.hx.len_writes ~read_side:true;
  sweep_nodes hx_new.len_writes g.hx.len_reads ~read_side:false;
  Hashtbl.iter
    (fun wn row ->
      Slice_util.Bits.iter
        (fun rn ->
          Slice_obs.bump c_heap_emitted;
          emit ~from:rn ~on:wn Producer_heap)
        row)
    rows;
  (* Pass 4: control dependence inside the new bodies.  Entry callers
     come from the solved call graph (already keyed on new ids). *)
  begin
    let callers : (int, node list ref) Hashtbl.t = Hashtbl.create 16 in
    Andersen.iter_call_sites g.pta (fun ~caller ~stmt ~callees ->
        List.iter
          (fun cmc ->
            if Hashtbl.mem cm cmc then
              push callers cmc (intern g (Stmt (caller, stmt))))
          callees);
    List.iter
      (fun (mc, m) ->
        let entry_callers =
          match Hashtbl.find_opt callers mc with Some r -> !r | None -> []
        in
        control_pass g ~emit ~entry_callers mc m)
      changed_mcs
  end;
  (* Repair the cross-method losses the re-run passes don't cover. *)
  let rv_done : (node * int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (from, k, dead_desc) ->
      match (k, dead_desc) with
      | Return_value, Stmt (cmc, _) ->
        if not (Hashtbl.mem rv_done (from, cmc)) then begin
          Hashtbl.replace rv_done (from, cmc) ();
          let cmq, _ = Andersen.mctx_info g.pta cmc in
          let callee = Program.find_method_exn g.p cmq in
          if Instr.has_body callee then
            Instr.iter_terms callee (fun _ t ->
                match t.Instr.t_kind with
                | Instr.Return (Some _) ->
                  emit ~from
                    ~on:(intern g (Stmt (cmc, t.Instr.t_id)))
                    Return_value
                | Instr.Return None | Instr.Goto _ | Instr.If _
                | Instr.Throw _ -> ())
        end
      | Control, Stmt (cmc, s) -> (
        (* entry-governed callee statement onto a moved call site *)
        match site_remap s with
        | Some s' -> emit ~from ~on:(intern g (Stmt (cmc, s'))) Control
        | None -> ())
      | _ -> ())
    !losses;
  g.patching <- false;
  (* Commit: session rows become overlays; dead rows empty; new nodes
     with no edges get explicit empty rows (they are past the CSR). *)
  let rows_touched : (node, unit) Hashtbl.t = Hashtbl.create 256 in
  let to_arrays row =
    let l = !row in
    let len = List.length l in
    let dst = Array.make len 0 in
    let kind = Array.make len 0 in
    List.iteri
      (fun i (d, k) ->
        dst.(i) <- d;
        kind.(i) <- edge_kind_tag k)
      l;
    (dst, kind)
  in
  Hashtbl.iter
    (fun n row ->
      g.ov_deps.(n) <- Some (to_arrays row);
      Hashtbl.replace rows_touched n ())
    sess_deps;
  Hashtbl.iter
    (fun n row ->
      g.ov_uses.(n) <- Some (to_arrays row);
      Hashtbl.replace rows_touched n ())
    sess_uses;
  for n = old_num to g.num_nodes - 1 do
    if g.ov_deps.(n) = None then g.ov_deps.(n) <- Some ([||], [||]);
    if g.ov_uses.(n) = None then g.ov_uses.(n) <- Some ([||], [||])
  done;
  List.iter
    (fun d ->
      g.ov_deps.(d) <- Some ([||], [||]);
      g.ov_uses.(d) <- Some ([||], [||]))
    !newly_dead;
  g.stmt_table <- Program.build_stmt_table g.p;
  g.lx <- Some (build_line_index g);
  g.generation <- g.generation + 1;
  g.patched <- true;
  (* Segments = method contexts; refrozen = contexts whose rows moved. *)
  let seg_touched : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter (fun mc () -> Hashtbl.replace seg_touched mc ()) cm;
  Hashtbl.iter
    (fun n () ->
      if not g.dead.(n) then
        match g.descs.(n) with
        | Stmt (mc, _) | Actual_in (mc, _, _) | Formal (mc, _) ->
          Hashtbl.replace seg_touched mc ())
    rows_touched;
  let seg_total = List.length (Andersen.method_contexts g.pta) in
  { ps_nodes_dead = List.length !newly_dead;
    ps_nodes_new = g.num_nodes - old_num;
    ps_rows_touched = Hashtbl.length rows_touched;
    ps_segments_refrozen = Hashtbl.length seg_touched;
    ps_segments_total = max seg_total (Hashtbl.length seg_touched) })

(* ------------------------------------------------------------------ *)
(* Lookups used by drivers                                             *)
(* ------------------------------------------------------------------ *)

(* All live nodes whose source line matches, ascending: one row of the
   line index. *)
let nodes_at_line (g : t) ~(line : int) : node list =
  let ix = line_index g "nodes_at_line" in
  if line < 0 || line + 1 >= Array.length ix.line_off then []
  else begin
    let out = ref [] in
    for j = ix.line_off.(line + 1) - 1 downto ix.line_off.(line) do
      out := ix.line_nodes.(j) :: !out
    done;
    !out
  end

(* Number of scalar statements: distinct statement ids that appear as nodes
   (context clones counted once), matching Table 1's "SDG Statements". *)
let num_scalar_statements (g : t) : int =
  let seen = Hashtbl.create 256 in
  for n = 0 to g.num_nodes - 1 do
    if not (is_dead g n) then
      match g.descs.(n) with
      | Stmt (_, s) -> Hashtbl.replace seen s ()
      | Formal _ | Actual_in _ -> ()
  done;
  Hashtbl.length seen

(* DOT export for documentation and debugging.  [witness] is a dependence
   path as (node, arrival kind) steps, seed first; its nodes and exactly
   the hop edges (predecessor -> step, with the step's arrival kind) are
   highlighted so the path stands out of the full graph. *)
let to_dot ?(witness : (node * edge_kind option) list = []) (g : t) : string =
  let wit_nodes = Hashtbl.create 16 in
  let wit_edges = Hashtbl.create 16 in
  let rec mark = function
    | [] -> ()
    | (n, _) :: rest ->
      Hashtbl.replace wit_nodes n ();
      (match rest with
      | (m, Some k) :: _ -> Hashtbl.replace wit_edges (n, m, k) ()
      | _ -> ());
      mark rest
  in
  mark witness;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph sdg {\n  node [shape=box,fontname=monospace];\n";
  for n = 0 to g.num_nodes - 1 do
    if not (is_dead g n) then begin
      let hl =
        if Hashtbl.mem wit_nodes n then ",color=red,penwidth=2.0" else ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=%S%s];\n" n
           (Format.asprintf "%a" (pp_node g) n)
           hl)
    end
  done;
  for n = 0 to g.num_nodes - 1 do
    deps_iter g n (fun dep kind ->
        let style =
          match kind with
          | Producer_local | Producer_heap | Param_in | Return_value -> "solid"
          | Base_pointer | Index | Call_actual -> "dashed"
          | Control -> "dotted"
        in
        let hl =
          if Hashtbl.mem wit_edges (n, dep, kind) then
            ",color=red,penwidth=2.0"
          else ""
        in
        Buffer.add_string buf
          (Printf.sprintf "  n%d -> n%d [style=%s,label=\"%s\"%s];\n" n dep
             style
             (edge_kind_to_string kind)
             hl))
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
