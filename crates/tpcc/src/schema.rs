//! The nine TPC-C tables, their column layouts and indexes.
//!
//! Decimals are stored as `i64` fixed-point cents; dates as `i64` unix
//! millis. String capacities are the spec's, except C_DATA (500 → 250
//! bytes) to bound PAX row width; the workload only appends to it.

use phoebe_storage::schema::{ColType, Schema};

/// The TPC-C tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Tbl {
    Warehouse = 0,
    District = 1,
    Customer = 2,
    History = 3,
    NewOrder = 4,
    Order = 5,
    OrderLine = 6,
    Item = 7,
    Stock = 8,
}

pub const TABLES: [Tbl; 9] = [
    Tbl::Warehouse,
    Tbl::District,
    Tbl::Customer,
    Tbl::History,
    Tbl::NewOrder,
    Tbl::Order,
    Tbl::OrderLine,
    Tbl::Item,
    Tbl::Stock,
];

/// The indexes the transactions need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Idx {
    WarehousePk = 0,
    DistrictPk = 1,
    CustomerPk = 2,
    /// (w, d, last) — non-unique, for Payment/Order-Status by name.
    CustomerByName = 3,
    OrderPk = 4,
    /// (w, d, c) — non-unique, latest order per customer.
    OrderByCustomer = 5,
    NewOrderPk = 6,
    OrderLinePk = 7,
    ItemPk = 8,
    StockPk = 9,
}

pub const INDEXES: [Idx; 10] = [
    Idx::WarehousePk,
    Idx::DistrictPk,
    Idx::CustomerPk,
    Idx::CustomerByName,
    Idx::OrderPk,
    Idx::OrderByCustomer,
    Idx::NewOrderPk,
    Idx::OrderLinePk,
    Idx::ItemPk,
    Idx::StockPk,
];

impl Tbl {
    pub fn name(self) -> &'static str {
        match self {
            Tbl::Warehouse => "warehouse",
            Tbl::District => "district",
            Tbl::Customer => "customer",
            Tbl::History => "history",
            Tbl::NewOrder => "new_order",
            Tbl::Order => "orders",
            Tbl::OrderLine => "order_line",
            Tbl::Item => "item",
            Tbl::Stock => "stock",
        }
    }

    /// The table's schema. Column index constants below must match.
    pub fn schema(self) -> Schema {
        use ColType::*;
        match self {
            Tbl::Warehouse => Schema::new(vec![
                ("w_id", I32),
                ("w_name", Str(10)),
                ("w_street_1", Str(20)),
                ("w_street_2", Str(20)),
                ("w_city", Str(20)),
                ("w_state", Str(2)),
                ("w_zip", Str(9)),
                ("w_tax", F64),
                ("w_ytd", I64),
            ]),
            Tbl::District => Schema::new(vec![
                ("d_id", I32),
                ("d_w_id", I32),
                ("d_name", Str(10)),
                ("d_street_1", Str(20)),
                ("d_street_2", Str(20)),
                ("d_city", Str(20)),
                ("d_state", Str(2)),
                ("d_zip", Str(9)),
                ("d_tax", F64),
                ("d_ytd", I64),
                ("d_next_o_id", I32),
            ]),
            Tbl::Customer => Schema::new(vec![
                ("c_id", I32),
                ("c_d_id", I32),
                ("c_w_id", I32),
                ("c_first", Str(16)),
                ("c_middle", Str(2)),
                ("c_last", Str(16)),
                ("c_street_1", Str(20)),
                ("c_street_2", Str(20)),
                ("c_city", Str(20)),
                ("c_state", Str(2)),
                ("c_zip", Str(9)),
                ("c_phone", Str(16)),
                ("c_since", I64),
                ("c_credit", Str(2)),
                ("c_credit_lim", I64),
                ("c_discount", F64),
                ("c_balance", I64),
                ("c_ytd_payment", I64),
                ("c_payment_cnt", I32),
                ("c_delivery_cnt", I32),
                ("c_data", Str(250)),
            ]),
            Tbl::History => Schema::new(vec![
                ("h_c_id", I32),
                ("h_c_d_id", I32),
                ("h_c_w_id", I32),
                ("h_d_id", I32),
                ("h_w_id", I32),
                ("h_date", I64),
                ("h_amount", I64),
                ("h_data", Str(24)),
            ]),
            Tbl::NewOrder => {
                Schema::new(vec![("no_o_id", I32), ("no_d_id", I32), ("no_w_id", I32)])
            }
            Tbl::Order => Schema::new(vec![
                ("o_id", I32),
                ("o_d_id", I32),
                ("o_w_id", I32),
                ("o_c_id", I32),
                ("o_entry_d", I64),
                ("o_carrier_id", I32),
                ("o_ol_cnt", I32),
                ("o_all_local", I32),
            ]),
            Tbl::OrderLine => Schema::new(vec![
                ("ol_o_id", I32),
                ("ol_d_id", I32),
                ("ol_w_id", I32),
                ("ol_number", I32),
                ("ol_i_id", I32),
                ("ol_supply_w_id", I32),
                ("ol_delivery_d", I64),
                ("ol_quantity", I32),
                ("ol_amount", I64),
                ("ol_dist_info", Str(24)),
            ]),
            Tbl::Item => Schema::new(vec![
                ("i_id", I32),
                ("i_im_id", I32),
                ("i_name", Str(24)),
                ("i_price", I64),
                ("i_data", Str(50)),
            ]),
            Tbl::Stock => Schema::new(vec![
                ("s_i_id", I32),
                ("s_w_id", I32),
                ("s_quantity", I32),
                ("s_dist_01", Str(24)),
                ("s_dist_02", Str(24)),
                ("s_dist_03", Str(24)),
                ("s_dist_04", Str(24)),
                ("s_dist_05", Str(24)),
                ("s_dist_06", Str(24)),
                ("s_dist_07", Str(24)),
                ("s_dist_08", Str(24)),
                ("s_dist_09", Str(24)),
                ("s_dist_10", Str(24)),
                ("s_ytd", I32),
                ("s_order_cnt", I32),
                ("s_remote_cnt", I32),
                ("s_data", Str(50)),
            ]),
        }
    }
}

impl Idx {
    pub fn name(self) -> &'static str {
        match self {
            Idx::WarehousePk => "warehouse_pk",
            Idx::DistrictPk => "district_pk",
            Idx::CustomerPk => "customer_pk",
            Idx::CustomerByName => "customer_by_name",
            Idx::OrderPk => "order_pk",
            Idx::OrderByCustomer => "order_by_customer",
            Idx::NewOrderPk => "new_order_pk",
            Idx::OrderLinePk => "order_line_pk",
            Idx::ItemPk => "item_pk",
            Idx::StockPk => "stock_pk",
        }
    }

    pub fn table(self) -> Tbl {
        match self {
            Idx::WarehousePk => Tbl::Warehouse,
            Idx::DistrictPk => Tbl::District,
            Idx::CustomerPk | Idx::CustomerByName => Tbl::Customer,
            Idx::OrderPk | Idx::OrderByCustomer => Tbl::Order,
            Idx::NewOrderPk => Tbl::NewOrder,
            Idx::OrderLinePk => Tbl::OrderLine,
            Idx::ItemPk => Tbl::Item,
            Idx::StockPk => Tbl::Stock,
        }
    }

    /// Key columns (indices into the table schema).
    pub fn key_cols(self) -> Vec<usize> {
        match self {
            Idx::WarehousePk => vec![0],
            Idx::DistrictPk => vec![1, 0],         // (w, d)
            Idx::CustomerPk => vec![2, 1, 0],      // (w, d, c)
            Idx::CustomerByName => vec![2, 1, 5],  // (w, d, last)
            Idx::OrderPk => vec![2, 1, 0],         // (w, d, o)
            Idx::OrderByCustomer => vec![2, 1, 3], // (w, d, c)
            Idx::NewOrderPk => vec![2, 1, 0],      // (w, d, o)
            Idx::OrderLinePk => vec![2, 1, 0, 3],  // (w, d, o, ol)
            Idx::ItemPk => vec![0],
            Idx::StockPk => vec![1, 0], // (w, i)
        }
    }

    pub fn unique(self) -> bool {
        !matches!(self, Idx::CustomerByName | Idx::OrderByCustomer)
    }
}

/// Cardinality scale. `spec()` is the TPC-C standard; `mini()` shrinks the
/// per-warehouse data so experiments finish quickly on small machines
/// while keeping the skew structure.
#[derive(Debug, Clone, Copy)]
pub struct TpccScale {
    pub districts_per_warehouse: u32,
    pub customers_per_district: u32,
    pub items: u32,
    pub initial_orders_per_district: u32,
}

impl TpccScale {
    pub fn spec() -> Self {
        TpccScale {
            districts_per_warehouse: 10,
            customers_per_district: 3000,
            items: 100_000,
            initial_orders_per_district: 3000,
        }
    }

    pub fn mini() -> Self {
        TpccScale {
            districts_per_warehouse: 10,
            customers_per_district: 60,
            items: 1_000,
            initial_orders_per_district: 30,
        }
    }

    pub fn micro() -> Self {
        TpccScale {
            districts_per_warehouse: 4,
            customers_per_district: 20,
            items: 200,
            initial_orders_per_district: 10,
        }
    }
}

// Column index constants used by the transactions.
pub mod cols {
    // warehouse
    pub const W_NAME: usize = 1;
    pub const W_TAX: usize = 7;
    pub const W_YTD: usize = 8;
    // district
    pub const D_NAME: usize = 2;
    pub const D_TAX: usize = 8;
    pub const D_YTD: usize = 9;
    pub const D_NEXT_O_ID: usize = 10;
    // customer
    pub const C_ID: usize = 0;
    pub const C_FIRST: usize = 3;
    pub const C_MIDDLE: usize = 4;
    pub const C_LAST: usize = 5;
    pub const C_CREDIT: usize = 13;
    pub const C_DISCOUNT: usize = 15;
    pub const C_BALANCE: usize = 16;
    pub const C_YTD_PAYMENT: usize = 17;
    pub const C_PAYMENT_CNT: usize = 18;
    pub const C_DELIVERY_CNT: usize = 19;
    pub const C_DATA: usize = 20;
    // order
    pub const O_ID: usize = 0;
    pub const O_C_ID: usize = 3;
    pub const O_CARRIER_ID: usize = 5;
    pub const O_OL_CNT: usize = 6;
    // order line
    pub const OL_I_ID: usize = 4;
    pub const OL_DELIVERY_D: usize = 6;
    pub const OL_QUANTITY: usize = 7;
    pub const OL_AMOUNT: usize = 8;
    // new order
    pub const NO_O_ID: usize = 0;
    // item
    pub const I_PRICE: usize = 3;
    pub const I_NAME: usize = 2;
    pub const I_DATA: usize = 4;
    // stock
    pub const S_QUANTITY: usize = 2;
    pub const S_YTD: usize = 13;
    pub const S_ORDER_CNT: usize = 14;
    pub const S_REMOTE_CNT: usize = 15;
    pub const S_DATA: usize = 16;
    pub const S_DIST_BASE: usize = 3; // s_dist_01 at 3 .. s_dist_10 at 12
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schemas_fit_pax_pages() {
        for t in TABLES {
            let schema = t.schema();
            let layout = phoebe_storage::PaxLayout::for_schema(&schema);
            assert!(layout.capacity >= 2, "{:?} must fit at least 2 rows", t);
        }
    }

    #[test]
    fn index_keys_fit_inline_limit() {
        use phoebe_storage::node::KEY_CAP;
        for idx in INDEXES {
            let schema = idx.table().schema();
            let mut width = 0usize;
            for c in idx.key_cols() {
                width += match schema.col_type(c) {
                    phoebe_storage::schema::ColType::I32 => 4,
                    phoebe_storage::schema::ColType::I64 | phoebe_storage::schema::ColType::F64 => {
                        8
                    }
                    phoebe_storage::schema::ColType::Str(m) => m as usize,
                };
            }
            if !idx.unique() {
                width += 8; // row-id suffix
            }
            assert!(width <= KEY_CAP, "{:?} key width {} too large", idx, width);
        }
    }

    #[test]
    fn key_cols_are_valid_schema_columns() {
        for idx in INDEXES {
            let schema = idx.table().schema();
            for c in idx.key_cols() {
                assert!(c < schema.num_cols(), "{idx:?} col {c} out of range");
            }
        }
    }

    #[test]
    fn column_constants_match_schema_names() {
        let c = Tbl::Customer.schema();
        assert_eq!(c.col_name(cols::C_LAST), "c_last");
        assert_eq!(c.col_name(cols::C_BALANCE), "c_balance");
        assert_eq!(c.col_name(cols::C_DATA), "c_data");
        let d = Tbl::District.schema();
        assert_eq!(d.col_name(cols::D_NEXT_O_ID), "d_next_o_id");
        let s = Tbl::Stock.schema();
        assert_eq!(s.col_name(cols::S_QUANTITY), "s_quantity");
        assert_eq!(s.col_name(cols::S_DIST_BASE + 9), "s_dist_10");
        let o = Tbl::Order.schema();
        assert_eq!(o.col_name(cols::O_CARRIER_ID), "o_carrier_id");
        let ol = Tbl::OrderLine.schema();
        assert_eq!(ol.col_name(cols::OL_AMOUNT), "ol_amount");
    }
}
