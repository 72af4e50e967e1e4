type mode = Native | Virtualized of int

let refs_for_walk ~guest_levels ~leaf_depth ~mode =
  let g = leaf_depth + 1 in
  (* g guest-table references to reach the leaf. *)
  ignore guest_levels;
  match mode with
  | Native -> g
  | Virtualized h ->
    (* Each guest reference costs a host walk (h refs) plus itself, and the
       final guest-physical data address needs one more host walk:
       g*(h+1) + h = (g+1)*(h+1) - 1. *)
    ((g + 1) * (h + 1)) - 1

(* Page-walk caches: upper-level entries hit in the PWC/data caches;
   only the final leaf PTE read goes to memory. *)
let charge_refs ~clock ~stats ~table ~mode ~leaf_depth =
  let refs = refs_for_walk ~guest_levels:(Page_table.levels table) ~leaf_depth ~mode in
  let model = Sim.Clock.model clock in
  Sim.Clock.charge clock
    (model.Sim.Cost_model.mem_ref_dram + ((refs - 1) * model.Sim.Cost_model.cache_ref));
  Sim.Stats.add stats "walk_refs" refs;
  Sim.Stats.incr stats "page_walks";
  refs

(* One descent: the leaf's size fixes the depth it sits at. *)
let walk_unprofiled trace ~clock ~stats ~table ~mode ~va =
  let start = Sim.Clock.now clock in
  match Page_table.find_leaf table ~va with
  | leaf ->
    let leaf_depth = Page_table.leaf_node_depth table leaf.Page_table.size in
    let refs = charge_refs ~clock ~stats ~table ~mode ~leaf_depth in
    leaf.Page_table.accessed <- true;
    Sim.Trace.record trace ~op:"page_walk" ~start ~arg:refs ~outcome:"ok" ();
    leaf
  | exception Not_found ->
    (* The hardware walked all the way down to the hole. *)
    let leaf_depth = Page_table.levels table - 1 in
    let refs = charge_refs ~clock ~stats ~table ~mode ~leaf_depth in
    Sim.Trace.record trace ~op:"page_walk" ~start ~arg:refs ~outcome:"hole" ();
    raise Not_found

(* The span closure is built only when a profiler is attached. *)
let walk ~trace ~clock ~stats ~table ~mode ~va =
  if Sim.Profile.enabled (Sim.Trace.profile trace) then
    Sim.Trace.prof_span trace "page_walk" (fun () ->
        walk_unprofiled trace ~clock ~stats ~table ~mode ~va)
  else walk_unprofiled trace ~clock ~stats ~table ~mode ~va
