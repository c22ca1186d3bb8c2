type t = (string, int ref) Hashtbl.t

let create () : t = Hashtbl.create 16

let cell t name =
  match Hashtbl.find_opt t name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t name r;
      r

let add t name n =
  let r = cell t name in
  r := !r + n

let incr t name = add t name 1

let of_list l =
  let t = create () in
  List.iter (fun (name, n) -> add t name n) l;
  t

let get t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0

let reset t = Hashtbl.reset t

let to_list t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let diff a b =
  let names = Hashtbl.create 16 in
  Hashtbl.iter (fun k _ -> Hashtbl.replace names k ()) a;
  Hashtbl.iter (fun k _ -> Hashtbl.replace names k ()) b;
  Hashtbl.fold (fun k () acc -> k :: acc) names []
  |> List.sort String.compare
  |> List.filter_map (fun k ->
         let d = get a k - get b k in
         if d = 0 then None else Some (k, d))
