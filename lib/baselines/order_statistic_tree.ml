(* Counted B-tree storing an integer multiset; every node carries its
   subtree element count. Deletion uses the classic preemptive scheme: any
   child is refilled to >= t keys (borrow or merge) before descending, so no
   fix-ups propagate back up. *)

type node = {
  mutable nkeys : int;
  keys : int array; (* 2t - 1 slots *)
  children : node array; (* 2t slots for internal nodes, [||] for leaves *)
  mutable total : int; (* elements in this subtree *)
}

type t = { deg : int; mutable root : node }

let new_leaf deg = { nkeys = 0; keys = Array.make ((2 * deg) - 1) 0; children = [||]; total = 0 }

let new_internal deg =
  {
    nkeys = 0;
    keys = Array.make ((2 * deg) - 1) 0;
    children = Array.make (2 * deg) (Obj.magic 0);
    total = 0;
  }

let is_leaf n = n.children == [||]

let create ?(min_degree = 16) () =
  if min_degree < 2 then invalid_arg "Order_statistic_tree.create: min_degree >= 2";
  { deg = min_degree; root = new_leaf min_degree }

let size t = t.root.total
let clear t = t.root <- new_leaf t.deg

let lower_bound_keys node key =
  let lo = ref 0 and hi = ref node.nkeys in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if node.keys.(mid) < key then lo := mid + 1 else hi := mid
  done;
  !lo

let recompute_total node =
  let acc = ref node.nkeys in
  if not (is_leaf node) then
    for j = 0 to node.nkeys do
      acc := !acc + node.children.(j).total
    done;
  node.total <- !acc

(* ------------------------------------------------------------------ *)
(* Insertion                                                           *)
(* ------------------------------------------------------------------ *)

(* Split the full child [parent.children.(i)]; the median key moves up into
   [parent] at position [i]. *)
let split_child t parent i =
  let deg = t.deg in
  let y = parent.children.(i) in
  let z = if is_leaf y then new_leaf deg else new_internal deg in
  z.nkeys <- deg - 1;
  Array.blit y.keys deg z.keys 0 (deg - 1);
  if not (is_leaf y) then Array.blit y.children deg z.children 0 deg;
  y.nkeys <- deg - 1;
  (* shift parent's keys/children right to make room *)
  for j = parent.nkeys downto i + 1 do
    parent.keys.(j) <- parent.keys.(j - 1)
  done;
  for j = parent.nkeys + 1 downto i + 2 do
    parent.children.(j) <- parent.children.(j - 1)
  done;
  parent.keys.(i) <- y.keys.(deg - 1);
  parent.children.(i + 1) <- z;
  parent.nkeys <- parent.nkeys + 1;
  recompute_total z;
  recompute_total y

let rec insert_nonfull t node key =
  node.total <- node.total + 1;
  if is_leaf node then begin
    let i = ref (node.nkeys - 1) in
    while !i >= 0 && node.keys.(!i) > key do
      node.keys.(!i + 1) <- node.keys.(!i);
      decr i
    done;
    node.keys.(!i + 1) <- key;
    node.nkeys <- node.nkeys + 1
  end
  else begin
    (* descend into the child right of the last key <= key *)
    let i = ref node.nkeys in
    while !i > 0 && node.keys.(!i - 1) > key do
      decr i
    done;
    if node.children.(!i).nkeys = (2 * t.deg) - 1 then begin
      split_child t node !i;
      if key > node.keys.(!i) then incr i
    end;
    insert_nonfull t node.children.(!i) key
  end

let insert t key =
  if t.root.nkeys = (2 * t.deg) - 1 then begin
    let s = new_internal t.deg in
    s.children.(0) <- t.root;
    s.total <- t.root.total;
    t.root <- s;
    split_child t s 0
  end;
  insert_nonfull t t.root key

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let rec mem_node node key =
  let i = lower_bound_keys node key in
  if i < node.nkeys && node.keys.(i) = key then true
  else if is_leaf node then false
  else mem_node node.children.(i) key

let mem t key = mem_node t.root key

let rec rank_node node key =
  let i = lower_bound_keys node key in
  if is_leaf node then i
  else begin
    let acc = ref i in
    for j = 0 to i - 1 do
      acc := !acc + node.children.(j).total
    done;
    !acc + rank_node node.children.(i) key
  end

let rank t key = rank_node t.root key

let rec select_node node m =
  if is_leaf node then node.keys.(m)
  else begin
    let m = ref m and j = ref 0 in
    let result = ref None in
    while !result = None do
      let c = node.children.(!j).total in
      if !m < c then result := Some (select_node node.children.(!j) !m)
      else begin
        m := !m - c;
        if !m = 0 && !j < node.nkeys then result := Some node.keys.(!j)
        else begin
          (* also consumes the separator key when present *)
          if !j < node.nkeys then decr m;
          incr j
        end
      end
    done;
    Option.get !result
  end

let select t i =
  if i < 0 || i >= size t then invalid_arg "Order_statistic_tree.select: out of bounds";
  select_node t.root i

(* ------------------------------------------------------------------ *)
(* Deletion                                                            *)
(* ------------------------------------------------------------------ *)

let rec subtree_max node =
  if is_leaf node then node.keys.(node.nkeys - 1) else subtree_max node.children.(node.nkeys)

let rec subtree_min node = if is_leaf node then node.keys.(0) else subtree_min node.children.(0)

let remove_key_at node i =
  for j = i to node.nkeys - 2 do
    node.keys.(j) <- node.keys.(j + 1)
  done;
  node.nkeys <- node.nkeys - 1

(* Merge children i and i+1 with the separating key into child i. Both
   children must hold deg-1 keys. *)
let merge_children node i =
  let y = node.children.(i) and z = node.children.(i + 1) in
  y.keys.(y.nkeys) <- node.keys.(i);
  Array.blit z.keys 0 y.keys (y.nkeys + 1) z.nkeys;
  if not (is_leaf y) then Array.blit z.children 0 y.children (y.nkeys + 1) (z.nkeys + 1);
  y.nkeys <- y.nkeys + 1 + z.nkeys;
  y.total <- y.total + 1 + z.total;
  remove_key_at node i;
  for j = i + 1 to node.nkeys do
    node.children.(j) <- node.children.(j + 1)
  done

(* Ensure children.(i) has at least deg keys before descending; returns the
   index of the child to descend into (it can shift after a merge). *)
let refill_child t node i =
  let deg = t.deg in
  let c = node.children.(i) in
  if c.nkeys >= deg then i
  else if i > 0 && node.children.(i - 1).nkeys >= deg then begin
    (* borrow from the left sibling through the separator *)
    let l = node.children.(i - 1) in
    for j = c.nkeys downto 1 do
      c.keys.(j) <- c.keys.(j - 1)
    done;
    c.keys.(0) <- node.keys.(i - 1);
    node.keys.(i - 1) <- l.keys.(l.nkeys - 1);
    if not (is_leaf c) then begin
      for j = c.nkeys + 1 downto 1 do
        c.children.(j) <- c.children.(j - 1)
      done;
      c.children.(0) <- l.children.(l.nkeys);
      let moved = c.children.(0).total in
      l.total <- l.total - moved;
      c.total <- c.total + moved
    end;
    c.nkeys <- c.nkeys + 1;
    l.nkeys <- l.nkeys - 1;
    l.total <- l.total - 1;
    c.total <- c.total + 1;
    i
  end
  else if i < node.nkeys && node.children.(i + 1).nkeys >= deg then begin
    (* borrow from the right sibling through the separator *)
    let r = node.children.(i + 1) in
    c.keys.(c.nkeys) <- node.keys.(i);
    node.keys.(i) <- r.keys.(0);
    remove_key_at r 0;
    if not (is_leaf c) then begin
      let moved = r.children.(0) in
      c.children.(c.nkeys + 1) <- moved;
      for j = 0 to r.nkeys do
        r.children.(j) <- r.children.(j + 1)
      done;
      r.total <- r.total - moved.total;
      c.total <- c.total + moved.total
    end;
    c.nkeys <- c.nkeys + 1;
    r.total <- r.total - 1;
    c.total <- c.total + 1;
    i
  end
  else if i > 0 then begin
    merge_children node (i - 1);
    i - 1
  end
  else begin
    merge_children node i;
    i
  end

(* Delete one occurrence of [key] from [node]'s subtree, [node] being the
   root or holding >= deg keys; [false] when the key is absent. The one
   descent decrements every subtree count on its path and learns of an
   absent key only at the leaf, so each level restores its own count on
   the way back up. The borrows and merges it made stay: each leaves a
   valid tree on its own. *)
let rec delete_sub t node key =
  node.total <- node.total - 1;
  let i = lower_bound_keys node key in
  let found =
    if i < node.nkeys && node.keys.(i) = key then begin
      if is_leaf node then begin
        remove_key_at node i;
        true
      end
      else begin
        let y = node.children.(i) and z = node.children.(i + 1) in
        if y.nkeys >= t.deg then begin
          let pred = subtree_max y in
          node.keys.(i) <- pred;
          delete_sub t y pred
        end
        else if z.nkeys >= t.deg then begin
          let succ = subtree_min z in
          node.keys.(i) <- succ;
          delete_sub t z succ
        end
        else begin
          merge_children node i;
          delete_sub t node.children.(i) key
        end
      end
    end
    else if is_leaf node then false
    else begin
      let i = refill_child t node i in
      delete_sub t node.children.(i) key
    end
  in
  if not found then node.total <- node.total + 1;
  found

let remove t key =
  let found = delete_sub t t.root key in
  if t.root.nkeys = 0 && not (is_leaf t.root) then t.root <- t.root.children.(0);
  if not found then raise Not_found

(* ------------------------------------------------------------------ *)
(* Memory accounting                                                   *)
(* ------------------------------------------------------------------ *)

(* Walks live children only (slots beyond nkeys of an internal node hold a
   placeholder, never a reachable node). Words: node record header + 4
   fields, keys array header + capacity, children array header + capacity
   when internal. *)
let rec node_bytes n =
  let own =
    8 * (5 + 1 + Array.length n.keys + if is_leaf n then 0 else 1 + Array.length n.children)
  in
  if is_leaf n then own
  else begin
    let acc = ref own in
    for j = 0 to n.nkeys do
      acc := !acc + node_bytes n.children.(j)
    done;
    !acc
  end

let footprint_bytes t = (8 * 3) + node_bytes t.root

(* ------------------------------------------------------------------ *)
(* Invariant checking (tests)                                          *)
(* ------------------------------------------------------------------ *)

let check_invariants t =
  let deg = t.deg in
  let fail fmt = Printf.ksprintf failwith fmt in
  (* returns (depth, total, min_key, max_key) *)
  let rec go node ~is_root =
    if not is_root && node.nkeys < deg - 1 then fail "underfull node (%d keys)" node.nkeys;
    if node.nkeys > (2 * deg) - 1 then fail "overfull node";
    if is_root && node.nkeys = 0 && not (is_leaf node) then fail "empty internal root";
    for j = 1 to node.nkeys - 1 do
      if node.keys.(j - 1) > node.keys.(j) then fail "unsorted keys"
    done;
    if is_leaf node then begin
      if node.total <> node.nkeys then fail "leaf total mismatch";
      (1, node.nkeys, (if node.nkeys > 0 then Some node.keys.(0) else None),
       if node.nkeys > 0 then Some node.keys.(node.nkeys - 1) else None)
    end
    else begin
      let depth = ref (-1) and total = ref node.nkeys in
      let mn = ref None and mx = ref None in
      for j = 0 to node.nkeys do
        let d, tt, cmn, cmx = go node.children.(j) ~is_root:false in
        if !depth = -1 then depth := d
        else if d <> !depth then fail "uneven leaf depth";
        total := !total + tt;
        (match cmn, (if j = 0 then None else Some node.keys.(j - 1)) with
        | Some m, Some sep when m < sep -> fail "separator order violated (left)"
        | _ -> ());
        (match cmx, (if j = node.nkeys then None else Some node.keys.(j)) with
        | Some m, Some sep when m > sep -> fail "separator order violated (right)"
        | _ -> ());
        if j = 0 then mn := cmn;
        if j = node.nkeys then mx := cmx
      done;
      if node.total <> !total then fail "internal total mismatch (%d vs %d)" node.total !total;
      (!depth + 1, !total, (match !mn with Some _ as s -> s | None -> Some node.keys.(0)),
       match !mx with Some _ as s -> s | None -> Some node.keys.(node.nkeys - 1))
    end
  in
  ignore (go t.root ~is_root:true)
