//! Synthetic primary-school face-to-face contact network.
//!
//! The paper's introduction motivates GraphTempo with the school-contact
//! study of Gemmetto, Barrat & Cattuto (2014): contacts between students
//! and teachers, with class and grade attributes, where homophily in the
//! aggregated network informs targeted class-closure strategies against
//! influenza. This generator produces a day-by-day contact graph with that
//! structure: strong intra-class contact bias, weaker intra-grade bias,
//! and a time-varying contact-intensity attribute.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashSet};
use tempo_columnar::Value;
use tempo_graph::{
    AttributeSchema, GraphBuilder, GraphError, TemporalGraph, Temporality, TimeDomain, TimePoint,
};

/// Configuration of the school contact-network generator.
#[derive(Clone, Debug)]
pub struct SchoolConfig {
    /// Number of grades.
    pub grades: usize,
    /// Classes per grade.
    pub classes_per_grade: usize,
    /// Students per class.
    pub students_per_class: usize,
    /// Number of school days (time points).
    pub days: usize,
    /// Average contacts per child per day.
    pub contacts_per_child: f64,
    /// Probability a contact stays within the child's class.
    pub intra_class: f64,
    /// Probability a non-class contact stays within the grade.
    pub intra_grade: f64,
    /// Daily attendance probability.
    pub attendance: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SchoolConfig {
    fn default() -> Self {
        SchoolConfig {
            grades: 5,
            classes_per_grade: 2,
            students_per_class: 24,
            days: 10,
            contacts_per_child: 6.0,
            intra_class: 0.65,
            intra_grade: 0.6,
            attendance: 0.93,
            seed: 0x0c1a_55e5,
        }
    }
}

impl SchoolConfig {
    /// Total students.
    fn n_students(&self) -> usize {
        self.grades * self.classes_per_grade * self.students_per_class
    }

    /// Generates the contact network: static `grade` and `class`
    /// attributes, time-varying `intensity` (1–3, contact load bucket).
    ///
    /// # Errors
    /// Never in practice; propagates builder validation.
    pub fn generate(&self) -> Result<TemporalGraph, GraphError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n = self.n_students();
        let domain = TimeDomain::new(
            (0..self.days.max(1))
                .map(|d| format!("day{d:02}"))
                .collect::<Vec<_>>(),
        )?;
        let mut schema = AttributeSchema::new();
        let grade = schema.declare("grade", Temporality::Static)?;
        let class = schema.declare("class", Temporality::Static)?;
        let intensity = schema.declare("intensity", Temporality::TimeVarying)?;

        let mut b = GraphBuilder::new(domain, schema);
        let grade_values: Vec<Value> = (0..self.grades)
            .map(|gr| b.intern_category(grade, &format!("G{}", gr + 1)))
            .collect();
        let class_values: Vec<Value> = (0..self.grades * self.classes_per_grade)
            .map(|c| {
                let gr = c / self.classes_per_grade;
                let suffix = (b'A' + (c % self.classes_per_grade) as u8) as char;
                b.intern_category(class, &format!("{}{}", gr + 1, suffix))
            })
            .collect();

        let class_of = |s: usize| s / self.students_per_class;
        let grade_of = |s: usize| class_of(s) / self.classes_per_grade;
        let mut ids = Vec::with_capacity(n);
        for s in 0..n {
            let id = b.add_node(&format!("s{s}"))?;
            b.set_static(id, grade, grade_values[grade_of(s)].clone())?;
            b.set_static(id, class, class_values[class_of(s)].clone())?;
            ids.push(id);
        }

        for d in 0..self.days.max(1) {
            let t = TimePoint(d as u32);
            let present: Vec<usize> = (0..n).filter(|_| rng.gen_bool(self.attendance)).collect();
            if present.len() < 2 {
                continue;
            }
            let present_set: HashSet<usize> = present.iter().copied().collect();
            // ordered, so the day's edges are added in one order per seed
            let mut contacts: BTreeSet<(usize, usize)> = BTreeSet::new();
            let mut degree = vec![0usize; n];
            let target = (present.len() as f64 * self.contacts_per_child / 2.0) as usize;
            let mut attempts = 0;
            while contacts.len() < target && attempts < target * 40 + 100 {
                attempts += 1;
                let a = present[rng.gen_range(0..present.len())];
                let peer = if rng.gen_bool(self.intra_class) {
                    // classmate
                    let base = class_of(a) * self.students_per_class;
                    base + rng.gen_range(0..self.students_per_class)
                } else if rng.gen_bool(self.intra_grade) {
                    // grademate
                    let gbase = grade_of(a) * self.classes_per_grade * self.students_per_class;
                    gbase + rng.gen_range(0..self.classes_per_grade * self.students_per_class)
                } else {
                    rng.gen_range(0..n)
                };
                if peer == a || !present_set.contains(&peer) {
                    continue;
                }
                let (u, v) = (a.min(peer), a.max(peer));
                if contacts.insert((u, v)) {
                    degree[u] += 1;
                    degree[v] += 1;
                }
            }
            for &(u, v) in &contacts {
                b.add_edge_at(ids[u], ids[v], t)?;
            }
            for &s in &present {
                let bucket = match degree[s] {
                    0..=3 => 1,
                    4..=8 => 2,
                    _ => 3,
                };
                b.set_time_varying(ids[s], intensity, t, Value::Int(bucket))?;
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_attributes() {
        let cfg = SchoolConfig {
            grades: 2,
            classes_per_grade: 2,
            students_per_class: 10,
            days: 4,
            ..Default::default()
        };
        let g = cfg.generate().unwrap();
        assert_eq!(g.n_nodes(), 40);
        assert_eq!(g.domain().len(), 4);
        let grade = g.schema().id("grade").unwrap();
        let class = g.schema().id("class").unwrap();
        assert_eq!(g.schema().def(grade).category_count(), 2);
        assert_eq!(g.schema().def(class).category_count(), 4);
        assert!(g.n_edges() > 0);
    }

    #[test]
    fn homophily_intra_class_dominates() {
        let g = SchoolConfig::default().generate().unwrap();
        let class = g.schema().id("class").unwrap();
        let mut intra = 0usize;
        let mut inter = 0usize;
        for e in g.edge_ids() {
            let (u, v) = g.edge_endpoints(e);
            if g.static_value(u, class).unwrap() == g.static_value(v, class).unwrap() {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        assert!(
            intra > inter,
            "class homophily expected: intra={intra} inter={inter}"
        );
    }

    #[test]
    fn deterministic() {
        let a = SchoolConfig::default().generate().unwrap();
        let b = SchoolConfig::default().generate().unwrap();
        assert_eq!(a.n_edges(), b.n_edges());
    }

    #[test]
    fn intensity_in_buckets() {
        let g = SchoolConfig::default().generate().unwrap();
        let intensity = g.schema().id("intensity").unwrap();
        for n in g.node_ids() {
            for t in g.node_timestamp(n).iter() {
                let v = g.attr_value(n, intensity, t);
                if let Some(i) = v.as_int() {
                    assert!((1..=3).contains(&i));
                }
            }
        }
    }
}
