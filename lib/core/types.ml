type apn = { ap_name : string; ap_instance : string }

let apn ?(instance = "1") name = { ap_name = name; ap_instance = instance }

let apn_to_string a = a.ap_name ^ "/" ^ a.ap_instance

let apn_of_string s =
  match String.index_opt s '/' with
  | None -> { ap_name = s; ap_instance = "1" }
  | Some i ->
    {
      ap_name = String.sub s 0 i;
      ap_instance = String.sub s (i + 1) (String.length s - i - 1);
    }

let apn_equal a b =
  String.equal a.ap_name b.ap_name && String.equal a.ap_instance b.ap_instance

let apn_compare a b =
  match String.compare a.ap_name b.ap_name with
  | 0 -> String.compare a.ap_instance b.ap_instance
  | c -> c

type dif_name = string

type address = int

let no_address = 0

type port_id = int

type cep_id = int

type qos_id = int

let pp_apn fmt a = Format.pp_print_string fmt (apn_to_string a)

let pp_address fmt (a : address) = Format.fprintf fmt "@%d" a
