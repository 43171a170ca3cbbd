use std::collections::BTreeMap;

fn index(map: &mut BTreeMap<String, u32>, cfg: &[u32]) {
    map.insert(format!("{:?}", cfg), 1);
    let _ = map.get(&format!("{cfg:?}"));
    let mut state = 0u64;
    fnv1a_fmt(format_args!("{:?}", cfg), &mut state);
}
