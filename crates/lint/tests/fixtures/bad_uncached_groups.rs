//! Seeded `uncached-groups` violations: a read path that interns the whole
//! graph's group ids per call instead of taking the snapshot's cached ones.

pub fn per_request(g: &TemporalGraph, attrs: &[AttrId]) -> usize {
    let table = GroupTable::build(g, attrs);
    let cols = GroupColumns::build(g, attrs);
    table.n_groups() + cols.tuples().len()
}

pub fn shared(g: &TemporalGraph, attrs: &[AttrId]) -> usize {
    GroupTable::cached(g, attrs).n_groups()
}

#[cfg(test)]
mod tests {
    fn oracle(g: &TemporalGraph, attrs: &[AttrId]) -> usize {
        GroupTable::build(g, attrs).n_groups()
    }
}
