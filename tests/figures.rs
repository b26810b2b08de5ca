//! Every row of the paper's figure table shows what it claims: each figure
//! runs once at its defaults — its committed spec, or the paper's default
//! scenario at 0.25 days and seed 42, whatever `WATERWISE_*` the environment
//! holds — and its claims are read off the tables it prints.

use waterwise_bench::figures::{figure, FIGURES};

/// Run `id` at its defaults and demand every claim of its row.
fn shows_its_claims(id: &str) {
    let figure = figure(id).expect("a row of FIGURES");
    assert!(!figure.claims.is_empty(), "{id} claims nothing");
    let scenario = figure.default_scenario().expect("the committed spec loads");
    let tables = (figure.run)(&scenario);
    let broken: Vec<String> = (figure.broken_claims(&tables).iter())
        .map(|(claim, why)| format!("{} ({}): {why}", claim.states, claim.source))
        .collect();
    let printed: String = tables.iter().map(|t| t.render()).collect();
    assert!(
        broken.is_empty(),
        "{id} does not show {broken:#?}\n{printed}"
    );
}

macro_rules! figure_tests {
    ($($id:ident),*) => {
        $(#[test] fn $id() { shows_its_claims(stringify!($id)); })*

        #[test]
        fn every_figure_has_a_test() {
            let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
            assert_eq!(ids, [$(stringify!($id)),*]);
        }
    };
}

figure_tests!(
    fig01,
    fig02,
    fig03,
    fig05,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    fig13,
    table2,
    table3,
    sens_perturbation,
    sens_request_rate
);

#[test]
fn readme_lists_every_figure_and_its_claims() {
    let readme = include_str!("../README.md");
    let section = (readme.split("## Running the paper's experiments").nth(1))
        .and_then(|rest| rest.split("\n## ").next())
        .expect("README has a \"Running the paper's experiments\" section");
    let listed: Vec<&str> = (section.lines())
        .filter(|line| line.starts_with("| `"))
        .collect();
    let expected: Vec<String> = (FIGURES.iter())
        .map(|f| {
            let claims: Vec<&str> = f.claims.iter().map(|c| c.states).collect();
            format!("| `{}` | {} | {} |", f.id, f.paper_ref, claims.join(" "))
        })
        .collect();
    assert_eq!(
        listed,
        expected,
        "README's figure table drifted from FIGURES; it should read:\n{}",
        expected.join("\n")
    );
}
