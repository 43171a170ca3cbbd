fn per_case(child_seed: u64) {
    let mut rng = Rng::seed_from_u64(child_seed);
    consume(rng.next());
}

fn derived(root: u64) {
    let mut rng = Rng::seed_from_u64(child_seed(root, 1));
    consume(rng.next());
}

fn threaded(seed: u64) {
    let mut rng = Rng::seed_from_u64(seed ^ 0x9e37);
    consume(rng.next());
}

#[cfg(test)]
mod tests {
    #[test]
    fn pinned() {
        let mut rng = Rng::seed_from_u64(7);
        consume(rng.next());
    }
}
